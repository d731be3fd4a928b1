#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <span>

#include "common/rng.hpp"
#include "scratchpad/machine.hpp"
#include "sort/sort.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

Stopwatch::Stopwatch() : cpu0_(cpu_now_s()), wall0_(now_s()) {}

HostTime Stopwatch::elapsed() const {
  return {cpu_now_s() - cpu0_, now_s() - wall0_};
}

// ---- spans ----------------------------------------------------------------

std::uint64_t SpanRecorder::begin(std::string name, std::uint64_t parent,
                                  std::uint64_t request) {
  if (!enabled_) return 0;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  s.name = std::move(name);
  s.start = t;
  s.end = -1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = t;
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  const std::vector<Span> spans = snapshot();
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size() + 1);
  for (const Span& s : spans)
    if (s.parent != 0 && s.end >= 0)
      kids[s.parent].emplace_back(s.start, s.end);
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    if (s.end < 0) continue;
    auto& iv = kids[s.id];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_b = 0, cur_e = -1;
    for (auto [b, e] : iv) {
      b = std::max(b, s.start);
      e = std::min(e, s.end);
      if (e <= b) continue;
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += (s.end - s.start) - covered;
  }
  return out;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : snapshot())
    if (s.name == name && s.end >= 0) out.push_back(s.end - s.start);
  return out;
}

void SpanRecorder::write_json(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  const double origin = spans.empty() ? 0 : spans.front().start;
  std::ofstream os(path);
  os << std::setprecision(17) << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << ", \"name\": \"" << s.name
       << "\", \"start_s\": " << s.start - origin
       << ", \"end_s\": " << (s.end >= 0 ? s.end - origin : -1) << "}"
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

// ---- results --------------------------------------------------------------

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

std::vector<MetricSpec> end_to_end_metrics() {
  return {
      {"setup_s", "s"},
      {"keys_per_s", "keys/s"},
      {"speedup_2x", "ratio"},
      {"speedup_4x", "ratio"},
      {"speedup_8x", "ratio"},
      {"skew_speedup_8x", "ratio"},
      {"gnu_model_s", "s"},
      {"nmsort_model_s", "s"},
      {"jobs_per_s", "jobs/s"},
      {"job_p50_ms", "ms"},
      {"job_p99_ms", "ms"},
      {"model_p99_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
}

std::vector<MetricSpec> per_layer_metrics() {
  std::vector<MetricSpec> m;
  auto add = [&](std::string name, std::string unit) {
    m.push_back({std::move(name), std::move(unit)});
  };
  // sort + scratchpad
  for (const Column& c : kColumns)
    add(std::string("sort.") + c.name + ".host_s", "s");
  add("sort.zipf.nm8x.host_s", "s");
  for (const Column& c : kColumns) {
    const std::string p = std::string("scratchpad.") + c.name + ".";
    add(p + "far_blocks", "count");
    add(p + "near_blocks", "count");
    add(p + "far_bursts", "count");
    add(p + "near_bursts", "count");
  }
  add("scratchpad.zipf.nm8x.near_bursts", "count");
  for (const Column& c : kColumns)
    add(std::string("scratchpad.") + c.name + ".ns_per_burst", "ns");
  for (const Column& c : kColumns)
    add(std::string("scratchpad.") + c.name + ".partition_imbalance_max",
        "ratio");
  add("scratchpad.nm8x.p1.near_s", "s");
  add("scratchpad.nm8x.p1.seconds", "s");
  add("scratchpad.nm8x.p2.seconds", "s");
  add("scratchpad.nm8x.p2.dma_s", "s");
  add("stager.batches", "count");
  add("stager.prefetch_bytes", "bytes");
  // trace
  for (const Column& c : kColumns) {
    const std::string p = std::string("trace.") + c.name + ".";
    add(p + "capture_s", "s");
    add(p + "overhead_ratio", "ratio");
    add(p + "ops", "count");
  }
  add("trace.summary_mismatch", "count");
  add("trace.mapped.capture_s", "s");
  add("trace.mapped.overhead_ratio", "ratio");
  add("trace.mapped.bytes_per_op", "B/op");
  add("trace.mapped.spill_bytes", "bytes");
  add("trace.decode_s", "s");
  add("trace.decode_ops_per_s", "ops/s");
  add("trace.decode_shards", "count");
  // sim
  for (const Column& c : kColumns) {
    const std::string p = std::string("sim.") + c.name + ".";
    add(p + "run_s", "s");
    add(p + "events", "count");
    add(p + "events_per_s", "1/s");
    add(p + "l1_hit_rate", "fraction");
    add(p + "l2_hit_rate", "fraction");
    add(p + "far_accesses", "count");
    add(p + "near_accesses", "count");
    add(p + "lat_p99_ns", "ns");
  }
  // analyze
  add("analyze.racecheck_s", "s");
  add("analyze.ops_per_s", "ops/s");
  add("analyze.pairs_checked", "count");
  add("analyze.findings", "count");
  // server / kmeans / stager
  add("server.phase_ms_p50", "ms");
  add("server.phase_ms_p99", "ms");
  add("server.wait_ms_p50", "ms");
  add("server.wait_ms_p99", "ms");
  add("server.overhead_share", "fraction");
  add("server.admissions", "count");
  add("server.backoff_stalls", "count");
  add("server.rejections", "count");
  add("server.quota_denials", "count");
  add("server.phases_run", "count");
  add("server.sort_job_ms_p50", "ms");
  add("server.kmeans_job_ms_p50", "ms");
  add("stager.degrade_to_single", "count");
  add("stager.degrade_to_direct", "count");
  add("kmeans.cluster_ms_p50", "ms");
  // self time per layer, from the spans
  for (const char* layer : {"sort", "trace", "sim", "analyze", "server",
                            "kmeans"})
    add(std::string("self_s.") + layer, "s");
  add("spans.recorded", "count");
  add("host.cpu_per_wall", "ratio");
  // tracing overhead: traced run vs the untraced half of the same run
  add("overhead.keys_per_s", "keys/s");
  add("overhead.jobs_per_s", "jobs/s");
  add("overhead.job_p50_ms", "ms");
  add("overhead.job_p99_ms", "ms");
  return m;
}

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double tail_latency(std::vector<double> xs, double* q_out) {
  const std::size_t n = xs.size();
  std::sort(xs.begin(), xs.end());
  const auto p99_rank =
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
  const std::size_t idx = std::min(p99_rank - 1, n - 11);
  *q_out = static_cast<double>(idx + 1) / static_cast<double>(n);
  return xs[idx];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- inputs ---------------------------------------------------------------

std::vector<std::uint64_t> uniform_keys(std::size_t n, std::uint64_t seed) {
  return tlm::random_keys(n, seed);
}

std::vector<std::uint64_t> zipf_keys(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  tlm::Xoshiro256 r(seed ^ 0x5a1ffULL);
  for (auto& x : v) x = static_cast<std::uint64_t>(n) / (r.below(n) + 1);
  return v;
}

// ---- sort legs ------------------------------------------------------------

SortLeg run_sort_leg(const tlm::TwoLevelConfig& cfg, bool nmsort,
                     const std::vector<std::uint64_t>& keys,
                     const std::vector<std::uint64_t>& expect,
                     std::uint64_t seed, tlm::trace::TraceSink* sink,
                     SpanRecorder& spans, const std::string& span_name,
                     std::uint64_t parent, std::uint64_t request) {
  SortLeg leg;
  std::vector<std::uint64_t> data(keys);  // the baseline sorts in place
  std::vector<std::uint64_t> out(nmsort ? keys.size() : 0);
  {
    ScopedSpan span(spans, span_name, parent, request);
    const Stopwatch sw;
    {
      tlm::Machine m(cfg, sink);
      if (nmsort) {
        tlm::sort::NMSortOptions o;
        o.seed = seed ^ 0x9e3779b97f4a7c15ULL;
        tlm::sort::nm_sort_into(m, std::span<const std::uint64_t>(data),
                                std::span<std::uint64_t>(out), o);
      } else {
        tlm::sort::gnu_like_sort(m, std::span<std::uint64_t>(data));
      }
      m.end_phase();
      leg.stats = m.stats();
      leg.stager = m.stager_stats();
    }
    leg.host = sw.elapsed();
  }
  leg.sorted_ok = (nmsort ? out : data) == expect;
  return leg;
}

namespace {

using U64Field = std::uint64_t PhaseStats::*;
using F64Field = double PhaseStats::*;

constexpr U64Field kU64Fields[] = {
    &PhaseStats::far_read_bytes,       &PhaseStats::far_write_bytes,
    &PhaseStats::near_read_bytes,      &PhaseStats::near_write_bytes,
    &PhaseStats::far_blocks,           &PhaseStats::near_blocks,
    &PhaseStats::far_bursts,           &PhaseStats::near_bursts,
    &PhaseStats::dma_far_bytes,        &PhaseStats::dma_near_bytes,
    &PhaseStats::dma_far_bursts,       &PhaseStats::dma_near_bursts,
    &PhaseStats::far_read_blocks,      &PhaseStats::far_write_blocks,
    &PhaseStats::near_read_blocks,     &PhaseStats::near_write_blocks,
    &PhaseStats::far_read_bursts,      &PhaseStats::far_write_bursts,
    &PhaseStats::near_read_bursts,     &PhaseStats::near_write_bursts,
    &PhaseStats::dma_far_read_bytes,   &PhaseStats::dma_far_write_bytes,
    &PhaseStats::dma_near_read_bytes,  &PhaseStats::dma_near_write_bytes,
    &PhaseStats::dma_far_read_bursts,  &PhaseStats::dma_far_write_bursts,
    &PhaseStats::dma_near_read_bursts, &PhaseStats::dma_near_write_bursts,
    &PhaseStats::partition_splits,
};
constexpr F64Field kF64Fields[] = {
    &PhaseStats::partition_imbalance_max, &PhaseStats::compute_ops_total,
    &PhaseStats::compute_ops_max,         &PhaseStats::far_s,
    &PhaseStats::near_s,                  &PhaseStats::compute_s,
    &PhaseStats::dma_s,                   &PhaseStats::stall_s,
    &PhaseStats::seconds,
};

bool same_phase(const PhaseStats& a, const PhaseStats& b) {
  if (a.name != b.name) return false;
  for (U64Field f : kU64Fields)
    if (a.*f != b.*f) return false;
  for (F64Field f : kF64Fields)
    if (a.*f != b.*f) return false;
  return true;
}

}  // namespace

bool same_model(const MachineStats& a, const MachineStats& b) {
  if (a.phases.size() != b.phases.size()) return false;
  for (std::size_t i = 0; i < a.phases.size(); ++i)
    if (!same_phase(a.phases[i], b.phases[i])) return false;
  return same_phase(a.total, b.total);
}

double phase_sum(const MachineStats& s, const std::string& phase,
                 double PhaseStats::*field) {
  double sum = 0;
  for (const PhaseStats& p : s.phases)
    if (p.name == phase) sum += p.*field;
  return sum;
}

void report_sort_column(Result& res, const std::string& col, double sort_s,
                        const SortLeg& leg) {
  const PhaseStats& t = leg.stats.total;
  res.set("sort." + col + ".host_s", sort_s);
  const std::string p = "scratchpad." + col + ".";
  res.set(p + "far_blocks", static_cast<double>(t.far_blocks));
  res.set(p + "near_blocks", static_cast<double>(t.near_blocks));
  res.set(p + "far_bursts", static_cast<double>(t.far_bursts));
  res.set(p + "near_bursts", static_cast<double>(t.near_bursts));
  res.set(p + "ns_per_burst", sort_s * 1e9 / static_cast<double>(leg.bursts()));
  res.set(p + "partition_imbalance_max", t.partition_imbalance_max);
}

void report_nm8_phases(Result& res, const MachineStats& nm8) {
  res.set("scratchpad.nm8x.p1.near_s",
          phase_sum(nm8, "nmsort.phase1", &PhaseStats::near_s));
  res.set("scratchpad.nm8x.p1.seconds",
          phase_sum(nm8, "nmsort.phase1", &PhaseStats::seconds));
  res.set("scratchpad.nm8x.p2.seconds",
          phase_sum(nm8, "nmsort.phase2", &PhaseStats::seconds));
  res.set("scratchpad.nm8x.p2.dma_s",
          phase_sum(nm8, "nmsort.phase2", &PhaseStats::dma_s));
}

Headline model_headline(const tlm::TwoLevelConfig& base, std::size_t n,
                        std::uint64_t seed, std::size_t inputs, Result& res) {
  Headline h;
  SpanRecorder off(false);
  auto run = [&](const std::vector<std::uint64_t>& keys, const Column& c,
                 const char* dist) {
    std::vector<std::uint64_t> expect = keys;
    std::sort(expect.begin(), expect.end());
    tlm::TwoLevelConfig cfg = base;
    cfg.rho = c.rho;
    const SortLeg leg =
        run_sort_leg(cfg, c.nmsort, keys, expect, seed, nullptr, off, "", 0, 0);
    res.check(leg.sorted_ok,
              std::string("headline ") + dist + " " + c.name + " output");
    return leg;
  };
  for (std::size_t i = 0; i < inputs; ++i) {
    const std::uint64_t s = seed + 0x9e3779b97f4a7c15ULL * i;
    const std::vector<std::uint64_t> keys = uniform_keys(n, s);
    h.gnu_s += run(keys, kColumns[0], "uniform").stats.total.seconds;
    for (int c = 0; c < 3; ++c) {
      const SortLeg leg = run(keys, kColumns[c + 1], "uniform");
      h.nm_s[c] += leg.stats.total.seconds;
      if (i == 0 && c == 1) h.nm4x_cpu_s = leg.host.cpu;
    }
    const std::vector<std::uint64_t> zipf = zipf_keys(n, s);
    h.zipf_gnu_s += run(zipf, kColumns[0], "zipf").stats.total.seconds;
    h.zipf_nm8_s += run(zipf, kColumns[3], "zipf").stats.total.seconds;
  }
  return h;
}

void report_headline(Result& res, double gnu_s, double nm2, double nm4,
                     double nm8, double zipf_gnu, double zipf_nm8) {
  res.set("speedup_2x", gnu_s / nm2);
  res.set("speedup_4x", gnu_s / nm4);
  res.set("speedup_8x", gnu_s / nm8);
  res.set("skew_speedup_8x", zipf_gnu / zipf_nm8);
  res.set("gnu_model_s", gnu_s);
  res.set("nmsort_model_s", nm8);
}

HostFigures median_figures(const std::vector<HostFigures>& fs) {
  auto med = [&](double HostFigures::*field) {
    std::vector<double> xs;
    for (const HostFigures& f : fs) xs.push_back(f.*field);
    return median(xs);
  };
  return {med(&HostFigures::keys_per_s), med(&HostFigures::jobs_per_s),
          med(&HostFigures::p50_s), med(&HostFigures::p99_s)};
}

void report_host(Result& res, const HostFigures& f, const HostTime& total) {
  res.set("host.cpu_per_wall", total.cpu / total.wall);
  res.set("keys_per_s", f.keys_per_s);
  res.set("jobs_per_s", f.jobs_per_s);
  res.set("job_p50_ms", f.p50_s * 1e3);
  res.set("job_p99_ms", f.p99_s * 1e3);
}

void report_overhead(Result& res, const std::vector<HostFigures>& untraced,
                     const std::vector<HostFigures>& traced) {
  std::vector<HostFigures> worse;
  for (std::size_t i = 0; i < std::min(untraced.size(), traced.size()); ++i) {
    const HostFigures& u = untraced[i];
    const HostFigures& t = traced[i];
    worse.push_back({u.keys_per_s - t.keys_per_s, u.jobs_per_s - t.jobs_per_s,
                     t.p50_s - u.p50_s, t.p99_s - u.p99_s});
  }
  const HostFigures m = median_figures(worse);
  res.set("overhead.keys_per_s", m.keys_per_s);
  res.set("overhead.jobs_per_s", m.jobs_per_s);
  res.set("overhead.job_p50_ms", m.p50_s * 1e3);
  res.set("overhead.job_p99_ms", m.p99_s * 1e3);
  res.notes.push_back("tracing overhead: median over " +
                      std::to_string(worse.size()) +
                      " untraced/traced pairs");
}

void Pipeline::add(const std::string& step, const HostTime& t) {
  steps[step].push_back(t.cpu);
  total += t;
  job_cpu_ += t.cpu;
}

void Pipeline::end_job() {
  job_s.push_back(job_cpu_);
  job_cpu_ = 0;
}

HostFigures Pipeline::typical() const {
  double p50 = 0;
  for (const auto& [step, xs] : steps) p50 += quantile(xs, 0.25);
  return {keys_per_job / p50, 1.0 / p50, p50, p50};
}

std::vector<HostFigures> Pipeline::jobs() const {
  std::vector<HostFigures> out;
  for (double s : job_s) out.push_back({keys_per_job / s, 1.0 / s, s, s});
  return out;
}

}  // namespace perfbench
