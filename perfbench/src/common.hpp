// Shared pieces of the benchmark program: the run options, the span
// recorder the traced run uses, the metric sink, percentile rules, input
// generators, and the sort legs every sort workload is built from.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "scratchpad/config.hpp"
#include "scratchpad/counters.hpp"
#include "trace/sink.hpp"

namespace perfbench {

using tlm::MachineStats;
using tlm::PhaseStats;
using tlm::StagerStats;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  // Divides every input size; the benchmark's own smoke test runs at a
  // large scale divisor so each workload finishes in about a second.
  std::uint64_t scale = 1;
};

// Scratch output (span dumps, capture directories), relative to the
// directory the benchmark runs in.
inline constexpr const char* kOutDir = ".bench_out";

double now_s();

// ---- host time --------------------------------------------------------------
// Every host metric is read on the process CPU clock: the CPU time of all
// the process's threads, exited ones included. On a shared host the guest's
// vCPUs are taken away from it at times (CPU steal); the kernel leaves that
// time out of a thread's CPU time, while wall time absorbs it, and more than
// once when a 4-thread section waits at a barrier for the thread whose vCPU
// was taken. What the CPU clock cannot see is idle time: work that became
// serial shows only in `wall`, which the traced run reports as
// host.cpu_per_wall.
struct HostTime {
  double cpu = 0, wall = 0;  // seconds
  HostTime& operator+=(const HostTime& o) {
    cpu += o.cpu;
    wall += o.wall;
    return *this;
  }
};

class Stopwatch {
 public:
  Stopwatch();
  HostTime elapsed() const;

 private:
  double cpu0_, wall0_;
};

// ---- spans ----------------------------------------------------------------
// Recorded by the benchmark around each call into a layer. A span's layer is
// its name up to the first '.', e.g. "sim.run" belongs to layer "sim". Spans
// of one request share `request`; `parent` is the enclosing span's id (0 for
// a root). Kept in memory and written out once, at the end of the run.
struct Span {
  std::uint64_t id = 0, parent = 0, request = 0;
  std::string name;
  double start = 0, end = 0;  // seconds on the recorder's steady clock
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Returns 0 (and records nothing) when disabled.
  std::uint64_t begin(std::string name, std::uint64_t parent,
                      std::uint64_t request);
  void end(std::uint64_t id);

  std::vector<Span> snapshot() const;
  // Self time per layer: each span's duration minus the union of its
  // children's intervals inside it.
  std::map<std::string, double> self_seconds_by_layer() const;
  // Durations (seconds) of every closed span named exactly `name`.
  std::vector<double> durations(const std::string& name) const;
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
};

// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& r, std::string name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : r_(r), id_(r.begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { r_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& r_;
  std::uint64_t id_;
};

// ---- results --------------------------------------------------------------
struct Result {
  std::uint64_t attempted = 0;  // operations whose output was checked
  std::uint64_t failed = 0;     // ... that failed a correctness check
  std::vector<std::string> failures;  // first few failure descriptions
  std::map<std::string, double> metrics;  // units live in the metric tables
  std::vector<std::string> notes;  // human-readable lines (sample counts)

  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { metrics[name] = value; }
};

// The end-to-end and per-layer metric names with their units, in the order
// BENCHMARK.json lists them.
struct MetricSpec {
  std::string name, unit;
};
std::vector<MetricSpec> end_to_end_metrics();
std::vector<MetricSpec> per_layer_metrics();

// ---- statistics -----------------------------------------------------------
double median(std::vector<double> xs);
// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> xs, double q);
// The tail percentile the benchmark reports for host latencies: p99 when at
// least 10 samples lie beyond it, else the highest percentile that still
// has 10 samples beyond it. Needs at least 21 samples. `*q_out` receives the
// quantile used.
double tail_latency(std::vector<double> xs, double* q_out);
double peak_rss_mib();

// ---- inputs ---------------------------------------------------------------
std::vector<std::uint64_t> uniform_keys(std::size_t n, std::uint64_t seed);
// The sweep_skew Zipf generator: key = n / (U[0, n) + 1).
std::vector<std::uint64_t> zipf_keys(std::size_t n, std::uint64_t seed);

// ---- sort legs ------------------------------------------------------------
// One Table I column: the algorithm and the scratchpad bandwidth expansion.
struct Column {
  const char* name;  // gnu, nm2x, nm4x, nm8x
  bool nmsort;
  double rho;
};
inline constexpr Column kColumns[] = {
    {"gnu", false, 2.0}, {"nm2x", true, 2.0}, {"nm4x", true, 4.0},
    {"nm8x", true, 8.0}};

struct SortLeg {
  MachineStats stats;
  StagerStats stager;
  HostTime host;  // Machine construction + sort + stats fold
  bool sorted_ok = false;
  std::uint64_t bursts() const {
    return stats.total.far_bursts + stats.total.near_bursts;
  }
};

// Sorts a copy of `keys` on a fresh Machine built from `cfg` (with `sink`
// attached when non-null) and checks the output against `expect`. The copy
// and the check are outside the timed interval.
SortLeg run_sort_leg(const tlm::TwoLevelConfig& cfg, bool nmsort,
                     const std::vector<std::uint64_t>& keys,
                     const std::vector<std::uint64_t>& expect,
                     std::uint64_t seed, tlm::trace::TraceSink* sink,
                     SpanRecorder& spans, const std::string& span_name,
                     std::uint64_t parent, std::uint64_t request);

// Every modeled counter and time term of the two runs agree (host time is
// ignored): the trace sink must not change the model.
bool same_model(const MachineStats& a, const MachineStats& b);

// Sum of one model field over the phases named `phase`.
double phase_sum(const MachineStats& s, const std::string& phase,
                 double tlm::PhaseStats::*field);

// Per-layer metrics of one untraced sort column: sort.<col>.host_s and the
// scratchpad.<col>.* counters, with `sort_s` the column's median CPU seconds.
void report_sort_column(Result& res, const std::string& col, double sort_s,
                        const SortLeg& leg);
// The NMsort rho=8 phase-fold terms (scratchpad.nm8x.p1.* / p2.*).
void report_nm8_phases(Result& res, const MachineStats& nm8);

// The modeled headline on one input size: GNU vs NMsort at rho 2/4/8 on
// uniform keys and at rho 8 on Zipf keys, counting backend, with modeled
// seconds summed over `inputs` inputs drawn from `seed` (small sizes need
// several for a seed-stable ratio). Used by the workloads whose timed
// pipeline does not run all six sorts itself; it runs after the timed
// region.
struct Headline {
  double gnu_s = 0, nm_s[3] = {0, 0, 0};  // nm2x, nm4x, nm8x
  double zipf_gnu_s = 0, zipf_nm8_s = 0;
  double nm4x_cpu_s = 0;  // untraced NMsort rho=4 CPU seconds, first input
};
Headline model_headline(const tlm::TwoLevelConfig& base, std::size_t n,
                        std::uint64_t seed, std::size_t inputs, Result& res);
void report_headline(Result& res, double gnu_s, double nm2, double nm4,
                     double nm8, double zipf_gnu, double zipf_nm8);

// ---- host metrics ---------------------------------------------------------
// The host end-to-end metrics every workload reports, in CPU seconds.
struct HostFigures {
  double keys_per_s = 0, jobs_per_s = 0, p50_s = 0, p99_s = 0;
};
// Each field's median over `fs`.
HostFigures median_figures(const std::vector<HostFigures>& fs);
// Also sets host.cpu_per_wall from `total`, the timed work on both clocks.
void report_host(Result& res, const HostFigures& f, const HostTime& total);
// Tracing overhead (traced run only) from paired samples: untraced[i] and
// traced[i] ran back to back, so drift over the run hits both alike. Each
// overhead.* metric is the median over pairs of how much the metric
// worsened with spans on: untraced minus traced for throughputs, traced
// minus untraced for latencies.
void report_overhead(Result& res, const std::vector<HostFigures>& untraced,
                     const std::vector<HostFigures>& traced);

// A single-client pipeline (every workload but tenant_jobs): one client runs
// jobs back to back, and each job is recorded whole and step by step, in
// CPU seconds.
struct Pipeline {
  double keys_per_job = 0;
  std::vector<double> job_s;
  std::map<std::string, std::vector<double>> steps;
  HostTime total;  // every timed step of every job
  // Records one timed step of the current job; end_job() closes the job.
  void add(const std::string& step, const HostTime& t);
  void end_job();
  // The typical job is the sum, over steps, of each step's lower-quartile
  // CPU time. The CPU clock already leaves out stolen time; what remains of
  // host interference (caches and memory bandwidth shared with other
  // guests) only ever slows work down, and comes in bursts, so the
  // least-disturbed quarter of a step's samples reads the program's own cost
  // most steadily. table1_sim and sort_counting run too few jobs for a tail
  // above the median, so every pipeline reports p99_s as that same typical
  // latency, and both rates follow from it.
  HostFigures typical() const;
  std::vector<HostFigures> jobs() const;  // each job's figures alone

 private:
  double job_cpu_ = 0;
};

// Runs single-client jobs back to back for `opt.seconds` of wall time.
// `job(recorder, traced, request)` runs one job. Untraced, every job gets a
// disabled recorder. Traced, jobs alternate untraced / traced, starting
// untraced and ending on a full pair, so the two legs share the run's drift
// and pair up for report_overhead.
template <typename Job>
void run_jobs(const Options& opt, SpanRecorder& spans, Job&& job) {
  SpanRecorder off(false);
  const double start = now_s();
  for (std::uint64_t i = 0;
       now_s() - start < opt.seconds || (opt.trace && i % 2 == 1); ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    job(traced ? spans : off, traced, i + 1);
  }
}

// ---- workloads ------------------------------------------------------------
// Each workload sets every end-to-end metric but peak_rss_mb, which main()
// adds, plus the per-layer metrics of the layers it runs. With opt.trace,
// untraced and traced work alternate through the timed region; the layer
// metrics come from the traced work and the overhead from the pairs.
Result run_table1_sim(const Options& opt, SpanRecorder& spans);
Result run_sort_counting(const Options& opt, SpanRecorder& spans);
Result run_trace_offline(const Options& opt, SpanRecorder& spans);
Result run_tenant_jobs(const Options& opt, SpanRecorder& spans);

// Runs `setup` five times and returns the median CPU time; the last set-up's
// state is what the workload keeps.
template <typename F>
double timed_setup(F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < 5; ++i) {
    const Stopwatch sw;
    setup();
    t.push_back(sw.elapsed().cpu);
  }
  return median(t);
}

}  // namespace perfbench
