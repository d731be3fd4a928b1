// sort_counting — the counting backend alone (no trace sink, no simulator):
// GNU sort and NMsort at rho 2/4/8 on 4M uniform keys and on 4M Zipf keys,
// 4 threads, 4 MiB scratchpad. One job is one pass over the eight sorts.
#include <algorithm>

#include "analysis/experiment.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kCores = 4;

struct Dist {
  std::vector<std::uint64_t> keys, expect;
};

struct Measured {
  Pipeline host;
  std::vector<double> sort_s[2][4];  // [uniform, zipf][column]
  SortLeg last[2][4];
};

// One job: the eight sorts.
void run_pass(Measured& m, const Dist (&dists)[2], std::uint64_t near_cap,
              std::uint64_t seed, SpanRecorder& spans, std::uint64_t request,
              Result& res) {
  static const char* kDistName[2] = {"uniform", "zipf"};
  ScopedSpan pass(spans, "bench.pass", 0, request);
  for (int d = 0; d < 2; ++d) {
    for (int c = 0; c < 4; ++c) {
      const Column& col = kColumns[c];
      const std::string name = std::string(kDistName[d]) + "." + col.name;
      SortLeg leg = run_sort_leg(
          tlm::analysis::scaled_counting_config(col.rho, kCores, near_cap),
          col.nmsort, dists[d].keys, dists[d].expect, seed, nullptr, spans,
          "sort." + name, pass.id(), request);
      res.check(leg.sorted_ok, "sort_counting " + name + " output sorted");
      m.host.add(name, leg.host);
      m.sort_s[d][c].push_back(leg.host.cpu);
      m.last[d][c] = std::move(leg);
    }
  }
  m.host.end_job();
}

}  // namespace

Result run_sort_counting(const Options& opt, SpanRecorder& spans) {
  Result res;
  const std::size_t n = 4'000'000 / opt.scale;
  const std::uint64_t near_cap =
      std::max<std::uint64_t>(4 * tlm::MiB / opt.scale, 512 * tlm::KiB);
  Dist dists[2];
  const double setup_s = timed_setup([&] {
    dists[0].keys = uniform_keys(n, opt.seed);
    dists[1].keys = zipf_keys(n, opt.seed);
    for (Dist& d : dists) {
      d.expect = d.keys;
      std::sort(d.expect.begin(), d.expect.end());
    }
    const std::vector<std::uint64_t> w = uniform_keys(20'000, opt.seed + 1);
    std::vector<std::uint64_t> we = w;
    std::sort(we.begin(), we.end());
    SpanRecorder off(false);
    const SortLeg leg = run_sort_leg(
        tlm::analysis::scaled_counting_config(8.0, kCores, near_cap), true, w,
        we, opt.seed, nullptr, off, "", 0, 0);
    res.check(leg.sorted_ok, "sort_counting warm-up output sorted");
  });
  res.set("setup_s", setup_s);

  Measured plain, traced;
  plain.host.keys_per_job = traced.host.keys_per_job =
      8.0 * static_cast<double>(n);
  run_jobs(opt, spans, [&](SpanRecorder& rec, bool on, std::uint64_t request) {
    run_pass(on ? traced : plain, dists, near_cap, opt.seed, rec, request,
             res);
  });
  const Measured& m = opt.trace ? traced : plain;
  if (opt.trace) report_overhead(res, plain.host.jobs(), traced.host.jobs());
  report_host(res, m.host.typical(), m.host.total);

  double model[2][4];
  double model_sum = 0;
  StagerStats stager;
  for (int d = 0; d < 2; ++d)
    for (int c = 0; c < 4; ++c) {
      model[d][c] = m.last[d][c].stats.total.seconds;
      model_sum += model[d][c];
      stager += m.last[d][c].stager;
    }
  report_headline(res, model[0][0], model[0][1], model[0][2], model[0][3],
                  model[1][0], model[1][3]);
  res.set("model_p99_ms", model_sum * 1e3);

  for (int c = 0; c < 4; ++c)
    report_sort_column(res, kColumns[c].name, median(m.sort_s[0][c]),
                       m.last[0][c]);
  res.set("sort.zipf.nm8x.host_s", median(m.sort_s[1][3]));
  res.set("scratchpad.zipf.nm8x.near_bursts",
          static_cast<double>(m.last[1][3].stats.total.near_bursts));
  report_nm8_phases(res, m.last[0][3].stats);
  res.set("stager.batches", static_cast<double>(stager.batches));
  res.set("stager.prefetch_bytes", static_cast<double>(stager.prefetch_bytes));
  return res;
}

}  // namespace perfbench
