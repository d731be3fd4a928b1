// trace_offline — the out-of-core trace path without the simulator: NMsort
// at rho 4 (2M uniform keys, 4 threads, 2 MiB scratchpad) captured through
// MappedLog into a scratch directory, decoded by ShardedReplay on a 4-wide
// pool, then analysed by the happens-before race checker. One job is one
// capture -> decode -> analyze pipeline.
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>

#include "analysis/experiment.hpp"
#include "analyze/racecheck.hpp"
#include "common.hpp"
#include "common/thread_pool.hpp"
#include "trace/mapped_log.hpp"
#include "trace/replay.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kCores = 4;

struct Measured {
  Pipeline host;
  std::vector<double> capture_s, decode_s, analyze_s;
  tlm::trace::MappedLogStats log;
  tlm::trace::ReplayStats replay;
  tlm::analyze::RacecheckStats race;
  std::size_t findings = 0;
  double model_s = 0;  // counting-model seconds of the captured sort
};

struct Setup {
  std::vector<std::uint64_t> keys, expect;
  std::unique_ptr<tlm::ThreadPool> pool;  // the decode pool
};

// One job: capture -> decode -> analyze.
void run_pass(Measured& m, const Setup& s, const tlm::TwoLevelConfig& cfg,
              const std::string& dir, std::uint64_t seed, SpanRecorder& spans,
              std::uint64_t request, Result& res) {
  ScopedSpan pass(spans, "bench.pass", 0, request);
  HostTime capture;
  std::optional<tlm::trace::MappedLog> log;
  {
    ScopedSpan span(spans, "trace.open", pass.id(), request);
    const Stopwatch sw;
    log.emplace(dir, kCores);
    capture += sw.elapsed();
  }
  const SortLeg leg = run_sort_leg(cfg, true, s.keys, s.expect, seed, &*log,
                                   spans, "trace.capture.mapped", pass.id(),
                                   request);
  capture += leg.host;
  {
    ScopedSpan span(spans, "trace.close", pass.id(), request);
    const Stopwatch sw;
    log->close();
    capture += sw.elapsed();
  }
  m.log = log->stats();
  log.reset();

  HostTime decode, analyze;
  bool decoded = false, clean = false;
  try {
    std::optional<tlm::trace::ShardedReplay> replay;
    {
      ScopedSpan span(spans, "trace.decode", pass.id(), request);
      const Stopwatch sw;
      replay.emplace(dir, *s.pool);
      decode = sw.elapsed();
    }
    decoded = true;
    m.replay = replay->stats();
    ScopedSpan span(spans, "analyze.racecheck", pass.id(), request);
    const Stopwatch sw;
    const tlm::analyze::RacecheckReport rep =
        tlm::analyze::racecheck(*replay);
    analyze = sw.elapsed();
    m.race = rep.stats;
    m.findings = rep.findings.size();
    clean = rep.clean();
  } catch (const std::exception& e) {
    res.check(false, std::string("trace_offline decode/analyze threw: ") +
                         e.what());
  }
  m.host.add("capture", capture);
  m.host.add("decode", decode);
  m.host.add("analyze", analyze);
  m.host.end_job();

  res.check(leg.sorted_ok, "trace_offline captured output sorted");
  res.check(decoded && m.replay.ops == m.log.ops,
            "trace_offline decoded op count == MappedLogStats::ops");
  res.check(decoded && m.replay.fences > 0 &&
                m.replay.recovered_threads == 0 &&
                m.replay.threads == kCores,
            "trace_offline fence schedule merged over all threads");
  res.check(clean, "trace_offline racecheck clean");

  m.model_s = leg.stats.total.seconds;
  m.capture_s.push_back(capture.cpu);
  m.decode_s.push_back(decode.cpu);
  m.analyze_s.push_back(analyze.cpu);
}

}  // namespace

Result run_trace_offline(const Options& opt, SpanRecorder& spans) {
  Result res;
  const std::size_t n = 2'000'000 / opt.scale;
  const std::uint64_t near_cap =
      std::max<std::uint64_t>(2 * tlm::MiB / opt.scale, 512 * tlm::KiB);
  const tlm::TwoLevelConfig cfg =
      tlm::analysis::scaled_counting_config(4.0, kCores, near_cap);
  const std::string dir =
      std::string(kOutDir) + "/trace_offline-" + std::to_string(::getpid());

  Setup s;
  const double setup_s = timed_setup([&] {
    s.keys = uniform_keys(n, opt.seed);
    s.expect = s.keys;
    std::sort(s.expect.begin(), s.expect.end());
    s.pool = std::make_unique<tlm::ThreadPool>(kCores);
    const std::vector<std::uint64_t> w = uniform_keys(20'000, opt.seed + 1);
    std::vector<std::uint64_t> we = w;
    std::sort(we.begin(), we.end());
    SpanRecorder off(false);
    const SortLeg leg =
        run_sort_leg(cfg, true, w, we, opt.seed, nullptr, off, "", 0, 0);
    res.check(leg.sorted_ok, "trace_offline warm-up output sorted");
  });
  res.set("setup_s", setup_s);

  Measured plain, traced;
  plain.host.keys_per_job = traced.host.keys_per_job = static_cast<double>(n);
  run_jobs(opt, spans, [&](SpanRecorder& rec, bool on, std::uint64_t request) {
    run_pass(on ? traced : plain, s, cfg, dir, opt.seed, rec, request, res);
  });
  const Measured& m = opt.trace ? traced : plain;
  if (opt.trace) report_overhead(res, plain.host.jobs(), traced.host.jobs());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  report_host(res, m.host.typical(), m.host.total);
  res.set("model_p99_ms", m.model_s * 1e3);

  // The modeled headline at this workload's size and configuration, after
  // the timed region.
  const Headline h = model_headline(cfg, n, opt.seed, 1, res);
  report_headline(res, h.gnu_s, h.nm_s[0], h.nm_s[1], h.nm_s[2], h.zipf_gnu_s,
                  h.zipf_nm8_s);

  const double cap_s = median(m.capture_s);
  const double dec_s = median(m.decode_s);
  const double ana_s = median(m.analyze_s);
  res.set("trace.mapped.capture_s", cap_s);
  res.set("trace.mapped.overhead_ratio", cap_s / h.nm4x_cpu_s);
  res.set("trace.mapped.bytes_per_op", m.log.bytes_per_op());
  res.set("trace.mapped.spill_bytes", static_cast<double>(m.log.file_bytes));
  res.set("trace.decode_s", dec_s);
  res.set("trace.decode_ops_per_s", static_cast<double>(m.replay.ops) / dec_s);
  res.set("trace.decode_shards", static_cast<double>(m.replay.shards));
  res.set("analyze.racecheck_s", ana_s);
  res.set("analyze.ops_per_s", static_cast<double>(m.race.ops) / ana_s);
  res.set("analyze.pairs_checked", static_cast<double>(m.race.pairs_checked));
  res.set("analyze.findings", static_cast<double>(m.findings));
  return res;
}

}  // namespace perfbench
