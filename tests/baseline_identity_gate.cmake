# A report-identity gate, run as a ctest via `cmake -P` (see
# bench/CMakeLists.txt for the registrations): table1_sst_sort at a checked-in
# baseline's exact parameters has to reproduce every cost leaf of that
# baseline under report_diff --max-changed=0. Two gates use it:
#
#   omega_noop_gate          The asymmetric write-cost extension must be
#                            invisible at its default ω = 1 against
#                            bench/baselines/table1_quick.json — a capture
#                            from before the split counters existed. Split
#                            leaves only present on the new side are
#                            reported informationally and excluded from the
#                            changed count (they have no pre-split twin to
#                            drift from); any drift in a shared leaf fails.
#   cycle_sim_identity_gate  Host-speed work on the cycle simulator must not
#                            move a single simulated statistic against
#                            bench/baselines/table1_sim_quick.json (a
#                            cycle-sim + counting run at 4 cores).
#
# Expects -DGATE=<name> -DTABLE1=<bin> -DTABLE1_ARGS="<args>"
#         -DREPORT_DIFF=<bin> -DBASELINE=<json> -DWORK_DIR=<dir>.
# TABLE1_ARGS is one space-separated string; --json is appended here.
cmake_minimum_required(VERSION 3.16)

foreach(var GATE TABLE1 TABLE1_ARGS REPORT_DIFF BASELINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "baseline_identity_gate: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

separate_arguments(args UNIX_COMMAND "${TABLE1_ARGS}")
execute_process(
  COMMAND "${TABLE1}" ${args} --json "${WORK_DIR}/current.json"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "${GATE}: table1_sst_sort ${TABLE1_ARGS} failed (exit ${rc})\n"
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

message(STATUS "${GATE}: table1_sst_sort ${TABLE1_ARGS} reproduces ${BASELINE}")
