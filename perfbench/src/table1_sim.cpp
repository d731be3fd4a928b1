// table1_sim — the paper's Table I pipeline at 4 cores: for each column
// (GNU sort, NMsort at 2x/4x/8x) sort once untraced, sort again with a
// TraceBuffer attached, and replay the capture on the scaled cycle-level
// node. One job is one pass over the four columns.
#include <algorithm>

#include "analysis/experiment.hpp"
#include "common.hpp"
#include "sim/system.hpp"
#include "trace/capture.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kCores = 4;

struct Input {
  std::vector<std::uint64_t> keys, expect;
  std::size_t n = 0;
  std::uint64_t near_cap = 0;
};

struct ColumnLayers {
  std::vector<double> sort_s, capture_s, sim_s;
  SortLeg untraced;
  std::uint64_t trace_ops = 0;
  tlm::sim::SimReport sim;
};

struct Layers {
  ColumnLayers col[4];
};

// TraceBuffer summary vs recount, over every capture of the run.
struct SummaryAudit {
  std::uint64_t captures = 0, mismatches = 0;
};

// The TraceBuffer's incrementally kept summary against a recount of the
// per-thread streams it holds (integer fields only: compute_ops is a float
// sum whose order differs between the two).
bool summary_matches(const tlm::trace::TraceBuffer& tb) {
  tlm::trace::TraceSummary r;
  for (const auto& s : tb.streams())
    for (const auto& op : s) r.note(op, false);
  const tlm::trace::TraceSummary& m = tb.summary();
  return r.reads == m.reads && r.writes == m.writes &&
         r.computes == m.computes && r.barriers == m.barriers &&
         r.dmas == m.dmas && r.read_bytes == m.read_bytes &&
         r.write_bytes == m.write_bytes && r.dma_bytes == m.dma_bytes;
}

std::uint64_t stream_ops(const tlm::trace::TraceBuffer& tb) {
  std::uint64_t n = 0;
  for (const auto& s : tb.streams()) n += s.size();
  return n;
}

struct Measured {
  Pipeline host;
  Layers layers;
  double model_s[4] = {0, 0, 0, 0};  // each column's simulated seconds
};

// One job: the four columns. Only the legs are timed; checks run between
// legs but outside the clock.
void run_pass(const Input& in, std::uint64_t seed, SpanRecorder& spans,
              std::uint64_t request, Result& res, SummaryAudit& audit,
              Measured& m) {
  ScopedSpan pass(spans, "bench.pass", 0, request);
  for (int c = 0; c < 4; ++c) {
    const Column& col = kColumns[c];
    ColumnLayers& cl = m.layers.col[c];
    const tlm::TwoLevelConfig cfg =
        tlm::analysis::scaled_counting_config(col.rho, kCores, in.near_cap);

    SortLeg plain = run_sort_leg(cfg, col.nmsort, in.keys, in.expect, seed,
                                 nullptr, spans,
                                 std::string("sort.") + col.name, pass.id(),
                                 request);
    tlm::trace::TraceBuffer tb(kCores);
    SortLeg cap = run_sort_leg(cfg, col.nmsort, in.keys, in.expect, seed, &tb,
                               spans, std::string("trace.capture.") + col.name,
                               pass.id(), request);
    HostTime sim;
    tlm::sim::SimReport rep;
    {
      ScopedSpan span(spans, std::string("sim.run.") + col.name, pass.id(),
                      request);
      const Stopwatch sw;
      tlm::sim::System sys(tlm::sim::SystemConfig::scaled(col.rho, kCores),
                           tb);
      rep = sys.run();
      sim = sw.elapsed();
    }
    m.host.add(std::string("sort.") + col.name, plain.host);
    m.host.add(std::string("capture.") + col.name, cap.host);
    m.host.add(std::string("sim.") + col.name, sim);

    const std::string tag = std::string("table1_sim ") + col.name;
    res.check(plain.sorted_ok, tag + " untraced output sorted");
    res.check(cap.sorted_ok, tag + " captured output sorted");
    res.check(same_model(plain.stats, cap.stats),
              tag + " captured MachineStats equal untraced");
    res.check(rep.seconds > 0 && rep.events > 0, tag + " simulation ran");
    ++audit.captures;
    if (!summary_matches(tb)) ++audit.mismatches;

    m.model_s[c] = rep.seconds;
    cl.sort_s.push_back(plain.host.cpu);
    cl.capture_s.push_back(cap.host.cpu);
    cl.sim_s.push_back(sim.cpu);
    cl.trace_ops = stream_ops(tb);
    cl.sim = rep;
    cl.untraced = std::move(plain);
  }
  m.host.end_job();
}

void report_layers(Result& res, const Layers& L) {
  StagerStats stager;
  for (int c = 0; c < 4; ++c) {
    const ColumnLayers& cl = L.col[c];
    const std::string name = kColumns[c].name;
    const double sort_s = median(cl.sort_s);
    const double cap_s = median(cl.capture_s);
    const double sim_s = median(cl.sim_s);
    report_sort_column(res, name, sort_s, cl.untraced);
    const std::string tp = "trace." + name + ".";
    res.set(tp + "capture_s", cap_s);
    res.set(tp + "overhead_ratio", cap_s / sort_s);
    res.set(tp + "ops", static_cast<double>(cl.trace_ops));
    const std::string mp = "sim." + name + ".";
    const tlm::sim::SimReport& r = cl.sim;
    res.set(mp + "run_s", sim_s);
    res.set(mp + "events", static_cast<double>(r.events));
    res.set(mp + "events_per_s", static_cast<double>(r.events) / sim_s);
    res.set(mp + "l1_hit_rate", r.l1.hit_rate());
    res.set(mp + "l2_hit_rate", r.l2.hit_rate());
    res.set(mp + "far_accesses", static_cast<double>(r.far.accesses()));
    res.set(mp + "near_accesses", static_cast<double>(r.near.accesses()));
    res.set(mp + "lat_p99_ns", r.latency_hist.p99() * 1e9);
    stager += cl.untraced.stager;
  }
  report_nm8_phases(res, L.col[3].untraced.stats);
  res.set("stager.batches", static_cast<double>(stager.batches));
  res.set("stager.prefetch_bytes", static_cast<double>(stager.prefetch_bytes));
}

}  // namespace

Result run_table1_sim(const Options& opt, SpanRecorder& spans) {
  Result res;
  Input in;
  in.n = 640'000 / opt.scale;
  in.near_cap = std::max<std::uint64_t>(tlm::MiB / opt.scale, 512 * tlm::KiB);
  const double setup_s = timed_setup([&] {
    in.keys = uniform_keys(in.n, opt.seed);
    in.expect = in.keys;
    std::sort(in.expect.begin(), in.expect.end());
    // Warm-up: one small untraced sort on a fresh Machine.
    const std::vector<std::uint64_t> w = uniform_keys(20'000, opt.seed + 1);
    std::vector<std::uint64_t> we = w;
    std::sort(we.begin(), we.end());
    SpanRecorder off(false);
    const SortLeg leg = run_sort_leg(
        tlm::analysis::scaled_counting_config(8.0, kCores, in.near_cap), true,
        w, we, opt.seed, nullptr, off, "", 0, 0);
    res.check(leg.sorted_ok, "table1_sim warm-up output sorted");
  });
  res.set("setup_s", setup_s);

  SummaryAudit audit;
  Measured plain, traced;
  plain.host.keys_per_job = traced.host.keys_per_job =
      4.0 * static_cast<double>(in.n);
  run_jobs(opt, spans, [&](SpanRecorder& rec, bool on, std::uint64_t request) {
    run_pass(in, opt.seed, rec, request, res, audit, on ? traced : plain);
  });
  const Measured& m = opt.trace ? traced : plain;
  if (opt.trace) report_overhead(res, plain.host.jobs(), traced.host.jobs());
  report_host(res, m.host.typical(), m.host.total);
  report_layers(res, m.layers);
  res.set("trace.summary_mismatch", static_cast<double>(audit.mismatches));
  res.notes.push_back("TraceBuffer summary mismatches: " +
                      std::to_string(audit.mismatches) + " of " +
                      std::to_string(audit.captures) + " captures");

  // Skew guard at the same size, counting backend, after the timed region.
  SpanRecorder off(false);
  const std::vector<std::uint64_t> zk = zipf_keys(in.n, opt.seed);
  std::vector<std::uint64_t> ze = zk;
  std::sort(ze.begin(), ze.end());
  double zipf_s[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const Column& col = kColumns[i == 0 ? 0 : 3];
    const SortLeg leg = run_sort_leg(
        tlm::analysis::scaled_counting_config(col.rho, kCores, in.near_cap),
        col.nmsort, zk, ze, opt.seed, nullptr, off, "", 0, 0);
    res.check(leg.sorted_ok, std::string("table1_sim zipf ") + col.name);
    zipf_s[i] = leg.stats.total.seconds;
  }
  report_headline(res, m.model_s[0], m.model_s[1], m.model_s[2], m.model_s[3],
                  zipf_s[0], zipf_s[1]);
  res.set("model_p99_ms",
          (m.model_s[0] + m.model_s[1] + m.model_s[2] + m.model_s[3]) * 1e3);
  return res;
}

}  // namespace perfbench
