# A report-identity gate, run as a ctest via `cmake -P` (see
# bench/CMakeLists.txt for the registrations): a bench binary run at a
# checked-in baseline's exact parameters has to exit 0 (a bench's own shape
# gates stay in force) and reproduce every cost leaf of that baseline under
# report_diff --max-changed=0. A cost leaf the current report adds ("new in
# current:") fails the gate too: an identity baseline must carry every leaf
# the bench emits, so a schema addition re-captures the baseline in the same
# change instead of leaving leaves unchecked. Four gates use it:
#
#   omega_noop_gate          The asymmetric write-cost extension must be
#                            invisible at its default ω = 1 against
#                            bench/baselines/table1_quick.json (counting
#                            backend, 2 cores): every combined and
#                            read/write split leaf reproduces bit for bit.
#   cycle_sim_identity_gate  Host-speed work on the cycle simulator must not
#                            move a single simulated statistic against
#                            bench/baselines/table1_sim_quick.json (a
#                            cycle-sim + counting run at 4 cores).
#   sweep_omega_gate         The ω-weighted fold (ω = 4, 16) against
#                            bench/baselines/sweep_omega_quick.json, on top
#                            of sweep_omega's own crossover exit code.
#   kmeans_identity_gate     The DMA ledger cells, through the staged
#                            k-means pipeline, against
#                            bench/baselines/kmeans_quick.json.
#
# Expects -DGATE=<name> -DBIN=<bench binary> -DARGS="<args>"
#         -DREPORT_DIFF=<bin> -DBASELINE=<json> -DWORK_DIR=<dir>.
# ARGS is one space-separated string; --json is appended here.
cmake_minimum_required(VERSION 3.16)

foreach(var GATE BIN ARGS REPORT_DIFF BASELINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "baseline_identity_gate: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

get_filename_component(bin_name "${BIN}" NAME)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BIN}" ${args} --json "${WORK_DIR}/current.json"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "${GATE}: ${bin_name} ${ARGS} failed (exit ${rc})\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()

execute_process(
  COMMAND "${REPORT_DIFF}" --max-changed=0 "${BASELINE}"
          "${WORK_DIR}/current.json"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "${GATE}: a cost leaf changed against ${BASELINE} (exit ${rc})\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${out}" "new in current:" added)
if(NOT added EQUAL -1)
  message(FATAL_ERROR
    "${GATE}: the current report has cost leaves ${BASELINE} lacks; "
    "re-capture the baseline with: ${bin_name} ${ARGS} --json <baseline>\n"
    "stdout:\n${out}")
endif()

message(STATUS "${GATE}: ${bin_name} ${ARGS} reproduces ${BASELINE}")
