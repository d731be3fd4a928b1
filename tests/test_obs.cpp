// Observability layer: JSON round-trips, metrics sharding, run-report
// schema, regression diffing, and the counters-layer fixes it rides on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "scratchpad/counters.hpp"
#include "scratchpad/machine.hpp"
#include "server/job_server.hpp"
#include "server/jobs.hpp"

namespace tlm {
namespace {

using obs::Json;

// ---------------------------------------------------------------- Json

TEST(Json, RoundTripsScalarsAndContainers) {
  Json j = Json::object();
  j["u"] = std::uint64_t{18446744073709551615ULL};  // beyond 2^53
  j["d"] = 2.5;
  j["neg"] = -3;
  j["s"] = "hello \"quoted\" \\ \n tab\t";
  j["b"] = true;
  j["null"] = nullptr;
  j["arr"] = Json::array();
  j["arr"].push_back(1);
  j["arr"].push_back("two");

  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back, j);
  EXPECT_EQ(back.at("u").u64(), 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(back.at("d").f64(), 2.5);
  EXPECT_DOUBLE_EQ(back.at("neg").f64(), -3.0);
  EXPECT_EQ(back.at("s").str(), "hello \"quoted\" \\ \n tab\t");
  EXPECT_TRUE(back.at("b").boolean());
  EXPECT_TRUE(back.at("null").is_null());
  EXPECT_EQ(back.at("arr").arr().size(), 2u);

  // Compact mode parses back to the same document.
  EXPECT_EQ(Json::parse(j.dump(-1)), j);
}

TEST(Json, NumericEqualityBridgesIntAndDouble) {
  EXPECT_EQ(Json(2.0), Json(std::uint64_t{2}));
  EXPECT_NE(Json(2.5), Json(std::uint64_t{2}));
}

TEST(Json, ParseErrorsCarryOffsets) {
  EXPECT_THROW(Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse(""), std::runtime_error);
}

TEST(Json, WrongTypeAccessThrows) {
  const Json j = Json::parse("{\"x\": \"str\"}");
  EXPECT_THROW(j.at("x").u64(), std::runtime_error);
  EXPECT_THROW(j.at("missing"), std::runtime_error);
  EXPECT_EQ(j.get_str("x", ""), "str");
  EXPECT_EQ(j.get_u64("absent", 7), 7u);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const Json j = Json::parse("\"a\\u00e9\\u20acb\"");
  EXPECT_EQ(j.str(), "a\xc3\xa9\xe2\x82\xac" "b");
}

// ------------------------------------------------------------- metrics

TEST(MetricsRegistry, ShardedCountersSumAcrossThreads) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  obs::MetricsRegistry reg(kThreads);
  auto& c = reg.counter("test.ops");
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1, t);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(reg.counters().at("test.ops"), kThreads * kPerThread);
}

TEST(MetricsRegistry, GaugesAndTimers) {
  obs::MetricsRegistry reg(2);
  reg.set_gauge("cfg.rho", 4.0);
  reg.set_gauge("cfg.rho", 8.0);  // last write wins
  reg.timer("t.sort").add_seconds(0.25, 0);
  reg.timer("t.sort").add_seconds(0.5, 1);
  EXPECT_DOUBLE_EQ(reg.gauges().at("cfg.rho"), 8.0);
  EXPECT_NEAR(reg.timers_seconds().at("t.sort"), 0.75, 1e-9);

  const Json j = reg.to_json();
  EXPECT_DOUBLE_EQ(j.at("gauges").at("cfg.rho").f64(), 8.0);
  EXPECT_NEAR(j.at("timers_s").at("t.sort").f64(), 0.75, 1e-9);
}

TEST(MetricsRegistry, EmptySectionsOmittedFromJson) {
  obs::MetricsRegistry reg;
  reg.counter("only.counter").add(3);
  const Json j = reg.to_json();
  EXPECT_TRUE(j.contains("counters"));
  EXPECT_FALSE(j.contains("gauges"));
  EXPECT_FALSE(j.contains("timers_s"));
}

// ------------------------------------------------------- PhaseStats fix

TEST(PhaseStats, PlusEqualsAggregatesEveryField) {
  PhaseStats a, b;
  a.far_read_bytes = 100;
  a.far_write_bytes = 10;
  a.near_read_bytes = 20;
  a.near_write_bytes = 2;
  a.far_blocks = 3;
  a.near_blocks = 4;
  a.far_bursts = 5;
  a.near_bursts = 6;
  a.compute_ops_total = 7.0;
  a.compute_ops_max = 1.5;
  a.far_s = 0.1;
  a.near_s = 0.2;
  a.compute_s = 0.3;
  a.seconds = 0.4;
  a.host_seconds = 0.5;
  b = a;
  b += a;
  EXPECT_EQ(b.far_read_bytes, 200u);
  EXPECT_EQ(b.far_write_bytes, 20u);
  EXPECT_EQ(b.near_read_bytes, 40u);
  EXPECT_EQ(b.near_write_bytes, 4u);
  EXPECT_EQ(b.far_blocks, 6u);
  EXPECT_EQ(b.near_blocks, 8u);
  EXPECT_EQ(b.far_bursts, 10u);
  EXPECT_EQ(b.near_bursts, 12u);
  EXPECT_DOUBLE_EQ(b.compute_ops_total, 14.0);
  EXPECT_DOUBLE_EQ(b.compute_ops_max, 3.0);
  EXPECT_DOUBLE_EQ(b.far_s, 0.2);
  EXPECT_DOUBLE_EQ(b.near_s, 0.4);
  EXPECT_DOUBLE_EQ(b.compute_s, 0.6);
  EXPECT_DOUBLE_EQ(b.seconds, 0.8);
  EXPECT_DOUBLE_EQ(b.host_seconds, 1.0);
  EXPECT_EQ(b.far_bytes(), 220u);
  EXPECT_EQ(b.near_bytes(), 44u);
}

TEST(MachineStats, AccessCountsRoundPartialLinesUp) {
  MachineStats st;
  st.total.far_read_bytes = 65;   // one full line + one partial
  st.total.near_write_bytes = 64; // exactly one line
  EXPECT_EQ(st.far_accesses(64), 2u);
  EXPECT_EQ(st.near_accesses(64), 1u);
  st.total.near_write_bytes = 63; // partial line still costs an access
  EXPECT_EQ(st.near_accesses(64), 1u);
  st.total.near_write_bytes = 0;
  EXPECT_EQ(st.near_accesses(64), 0u);
}

TEST(Machine, ChargesAfterEndPhaseLandInImplicitPhase) {
  Machine m(test_config(2.0));
  std::vector<std::uint64_t> buf(64);
  m.adopt_far(buf.data(), buf.size() * 8);
  m.begin_phase("explicit");
  m.stream_read(0, buf.data(), 64);
  m.end_phase();
  // Traffic after end_phase must not vanish from stats().
  m.stream_read(0, buf.data(), 128);
  const MachineStats st = m.stats();
  EXPECT_EQ(st.total.far_read_bytes, 192u);
}

// ----------------------------------------------------------- RunReport

obs::RunReport tiny_report() {
  const TwoLevelConfig cfg = analysis::scaled_counting_config(4.0, 2, MiB);
  const analysis::SortRun r = analysis::run_sort_counting(
      cfg, analysis::Algorithm::NMsort, 20000, 7);
  obs::RunReport report("unit_test");
  report.params["n"] = std::uint64_t{20000};
  report.wall_seconds = 0.125;
  obs::RunRecord& rec = report.add_run("nmsort");
  rec.set_config(cfg);
  rec.set_counting(r.counting, cfg.block_bytes);
  rec.wall_seconds = r.host_seconds;
  rec.gauges["modeled_seconds"] = r.modeled_seconds;
  rec.counters["verify.count"] = r.verified ? 1 : 0;
  return report;
}

TEST(RunReport, JsonRoundTripPreservesEverything) {
  const obs::RunReport report = tiny_report();
  const Json j = report.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty())
      << obs::validate_report(j).front();

  const obs::RunReport back = obs::RunReport::from_json(j);
  EXPECT_EQ(back.benchmark, report.benchmark);
  EXPECT_EQ(back.runs.size(), 1u);
  EXPECT_EQ(back.runs[0].name, "nmsort");
  EXPECT_TRUE(back.runs[0].has_config);
  EXPECT_TRUE(back.runs[0].has_counting);
  EXPECT_FALSE(back.runs[0].has_sim);
  EXPECT_EQ(back.runs[0].counting.total.far_read_bytes,
            report.runs[0].counting.total.far_read_bytes);
  EXPECT_EQ(back.runs[0].counting.phases.size(),
            report.runs[0].counting.phases.size());
  // Full-fidelity round trip: serializing again yields the same document.
  EXPECT_EQ(back.to_json(), j);
}

// Every field-table entry gets its own value, so a field that +=,
// phase_delta or the JSON round trip drops or confuses with another shows up
// by name.
TEST(PhaseFieldTable, SumDeltaAndJsonPreserveEveryField) {
  PhaseStats a;
  a.name = "fields";
  std::uint64_t next = 1;
  for_each_phase_field([&](const auto& f) { a.*f.member = next++; });

  PhaseStats twice = a;
  twice += a;
  const PhaseStats delta = phase_delta(twice, a);

  MachineStats st;
  st.total = a;
  st.phases.push_back(a);
  obs::RunReport report("unit_test");
  report.add_run("fields").set_counting(st, 64);
  const Json j = report.to_json();
  const obs::RunReport back = obs::RunReport::from_json(j);
  const Json& phase_json = j.at("runs").arr().at(0).at("counting").at("total");

  for_each_phase_field([&](const auto& f) {
    if (f.running_max) {
      EXPECT_EQ(twice.*f.member, a.*f.member) << f.name;
      EXPECT_EQ(delta.*f.member, a.*f.member) << f.name;
    } else {
      EXPECT_EQ(twice.*f.member, 2 * a.*f.member) << f.name;
      EXPECT_EQ(delta.*f.member, a.*f.member) << f.name;
    }
    EXPECT_TRUE(phase_json.contains(f.name)) << f.name;
    EXPECT_EQ(back.runs.at(0).counting.total.*f.member, a.*f.member)
        << f.name;
    EXPECT_EQ(back.runs.at(0).counting.phases.at(0).*f.member, a.*f.member)
        << f.name;
  });
}

TEST(RunReport, WriteAndLoadFile) {
  const obs::RunReport report = tiny_report();
  const std::string path =
      testing::TempDir() + "/tlm_obs_run_report_test.json";
  report.write(path);
  const obs::RunReport back = obs::RunReport::load(path);
  EXPECT_EQ(back.to_json(), report.to_json());
}

TEST(RunReport, ValidateRejectsBrokenDocuments) {
  EXPECT_FALSE(obs::validate_report(Json::parse("[]")).empty());
  EXPECT_FALSE(obs::validate_report(Json::parse("{}")).empty());
  EXPECT_FALSE(obs::validate_report(
                   Json::parse("{\"schema\": \"other\", \"schema_version\": 1,"
                               "\"benchmark\": \"x\", \"wall_seconds\": 0,"
                               "\"runs\": []}"))
                   .empty());

  Json j = tiny_report().to_json();
  j["schema_version"] = std::uint64_t{999};
  EXPECT_FALSE(obs::validate_report(j).empty());

  Json j2 = tiny_report().to_json();
  j2["runs"].arr()[0].obj().erase("name");
  EXPECT_FALSE(obs::validate_report(j2).empty());
}

TEST(RunReport, SimCountersFlattenFromSimReport) {
  const auto s = analysis::simulate_sort(2.0, 4, 20000, MiB,
                                         analysis::Algorithm::NMsort, 7);
  const obs::SimCounters sc = obs::SimCounters::from(s.report);
  EXPECT_GT(sc.events, 0u);
  EXPECT_GT(sc.seconds, 0.0);
  EXPECT_GT(sc.far_reads + sc.far_writes, 0u);
  EXPECT_GT(sc.near_reads + sc.near_writes, 0u);

  obs::RunReport report("sim_unit");
  obs::RunRecord& rec = report.add_run("sim");
  rec.set_sim(s.report);
  const Json j = report.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty());
  const obs::RunReport back = obs::RunReport::from_json(j);
  EXPECT_EQ(back.runs[0].sim.events, sc.events);
  EXPECT_EQ(back.runs[0].sim.l2_hits, sc.l2_hits);
}

TEST(RunReport, ExportStatsLandsInRegistry) {
  const obs::RunReport report = tiny_report();
  obs::MetricsRegistry reg;
  obs::export_stats(report.runs[0].counting, report.runs[0].line_bytes, reg);
  const auto counters = reg.counters();
  EXPECT_EQ(counters.at("machine.far_read_bytes") +
                counters.at("machine.far_write_bytes"),
            report.runs[0].counting.total.far_bytes());
  EXPECT_EQ(counters.at("machine.far_accesses"),
            report.runs[0].counting.far_accesses(report.runs[0].line_bytes));
}

TEST(RunReport, ExportStagerStatsLandsInRegistry) {
  StagerStats st;
  st.batches = 7;
  st.sync_bytes = 4096;
  st.prefetch_batches = 6;
  st.prefetch_bytes = 24576;
  st.fallback_direct = 1;
  st.restarts = 1;
  obs::MetricsRegistry reg;
  obs::export_stats(st, reg);
  const auto counters = reg.counters();
  EXPECT_EQ(counters.at("stager.batches"), 7u);
  EXPECT_EQ(counters.at("stager.sync_bytes"), 4096u);
  EXPECT_EQ(counters.at("stager.prefetch_batches"), 6u);
  EXPECT_EQ(counters.at("stager.prefetch_bytes"), 24576u);
  EXPECT_EQ(counters.at("stager.fallback_direct"), 1u);
  EXPECT_EQ(counters.at("stager.restarts"), 1u);
}

TEST(RunReport, ExportFaultStatsAlwaysEmitsFullKeySet) {
  // Zero-valued FaultStats still export every key: a clean run and a
  // faulted run of the same bench carry the same leaves, so report_diff
  // compares fault counters like any other cost leaf.
  obs::MetricsRegistry reg;
  obs::export_stats(FaultStats{}, reg);
  const auto counters = reg.counters();
  EXPECT_EQ(counters.at("faults.near_alloc_injected"), 0u);
  EXPECT_EQ(counters.at("faults.near_alloc_exhausted"), 0u);
  EXPECT_EQ(counters.at("faults.near_far_fallbacks"), 0u);
  EXPECT_EQ(counters.at("faults.dma_injected"), 0u);
  EXPECT_EQ(counters.at("faults.far_stalls"), 0u);
  EXPECT_EQ(counters.at("retries.dma"), 0u);
  const auto gauges = reg.gauges();
  EXPECT_DOUBLE_EQ(gauges.at("retries.backoff_seconds"), 0.0);
  EXPECT_DOUBLE_EQ(gauges.at("faults.stall_seconds"), 0.0);

  FaultStats fs;
  fs.near_alloc_injected = 3;
  fs.dma_retries = 2;
  fs.backoff_s = 3e-6;
  obs::MetricsRegistry reg2;
  obs::export_stats(fs, reg2);
  EXPECT_EQ(reg2.counters().at("faults.near_alloc_injected"), 3u);
  EXPECT_EQ(reg2.counters().at("retries.dma"), 2u);
  EXPECT_DOUBLE_EQ(reg2.gauges().at("retries.backoff_seconds"), 3e-6);
}

// ---------------------------------------------------------------- diff

TEST(Diff, IdenticalReportsAreClean) {
  const Json j = tiny_report().to_json();
  const obs::DiffReport d = obs::diff_reports(j, j);
  EXPECT_FALSE(d.has_regression());
  EXPECT_TRUE(d.entries.empty());
  EXPECT_TRUE(d.context_mismatches.empty());
  EXPECT_GT(d.leaves_compared, 0u);
}

TEST(Diff, InjectedCostIncreaseIsFlagged) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  Json& total = cur["runs"].arr()[0]["counting"]["total"];
  total["far_read_bytes"] = total.at("far_read_bytes").u64() * 2;
  const obs::DiffReport d = obs::diff_reports(base, cur);
  EXPECT_TRUE(d.has_regression());
  bool found = false;
  for (const auto& e : d.entries) {
    if (e.regression &&
        e.path.find("far_read_bytes") != std::string::npos) {
      found = true;
      EXPECT_NEAR(e.delta_rel, 1.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Diff, ImprovementIsNotARegression) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  Json& total = cur["runs"].arr()[0]["counting"]["total"];
  total["far_read_bytes"] = total.at("far_read_bytes").u64() / 2;
  const obs::DiffReport d = obs::diff_reports(base, cur);
  EXPECT_FALSE(d.has_regression());
  bool improvement = false;
  for (const auto& e : d.entries) improvement |= e.improvement;
  EXPECT_TRUE(improvement);
}

TEST(Diff, SmallJitterUnderThresholdPasses) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  Json& total = cur["runs"].arr()[0]["counting"]["total"];
  total["seconds"] = total.at("seconds").f64() * 1.02;  // 2% < 5%
  EXPECT_FALSE(obs::diff_reports(base, cur).has_regression());
  obs::DiffOptions strict;
  strict.threshold = 0.01;
  EXPECT_TRUE(obs::diff_reports(base, cur, strict).has_regression());
}

TEST(Diff, WallClockExcludedUnlessOptedIn) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  cur["wall_seconds"] = base.at("wall_seconds").f64() * 100.0;
  EXPECT_FALSE(obs::diff_reports(base, cur).has_regression());
  obs::DiffOptions opt;
  opt.include_wall = true;
  EXPECT_TRUE(obs::diff_reports(base, cur, opt).has_regression());
}

TEST(Diff, ConfigChangesAreContextMismatchesNotRegressions) {
  const Json base = tiny_report().to_json();
  Json cur = base;
  cur["params"]["n"] = std::uint64_t{40000};
  const obs::DiffReport d = obs::diff_reports(base, cur);
  EXPECT_FALSE(d.has_regression());
  ASSERT_FALSE(d.context_mismatches.empty());
  EXPECT_NE(d.context_mismatches[0].find("params.n"), std::string::npos);
}

TEST(Diff, RecordsAlignByNameNotPosition) {
  obs::RunReport a("bench"), b("bench");
  a.add_run("first").counters["cost_bytes"] = 100;
  a.add_run("second").counters["cost_bytes"] = 200;
  // Same records, reversed order, one regressed.
  b.add_run("second").counters["cost_bytes"] = 500;
  b.add_run("first").counters["cost_bytes"] = 100;
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_TRUE(d.has_regression());
  EXPECT_EQ(d.regressions(), 1u);
  for (const auto& e : d.entries) {
    if (e.regression) {
      EXPECT_NE(e.path.find("second"), std::string::npos);
    }
  }
}

TEST(Diff, MissingAndAddedLeavesAreReported) {
  // One rule for every cost leaf: absent on one side is missing or added.
  // Fault counters and the phase stall_s get no special treatment.
  obs::RunReport a("bench"), b("bench");
  obs::RunRecord& ra = a.add_run("r");
  ra.counters["old_bytes"] = 1;
  ra.counters["faults.dma_injected"] = 0;
  obs::RunRecord& rb = b.add_run("r");
  rb.counters["new_bytes"] = 1;
  MachineStats st;
  st.phases.push_back(PhaseStats{});
  st.phases[0].name = "p";
  rb.set_counting(st, 64);
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  const auto listed = [](const std::vector<std::string>& paths,
                         std::string_view leaf) {
    return std::any_of(paths.begin(), paths.end(), [&](const std::string& p) {
      return p.ends_with(leaf);
    });
  };
  ASSERT_EQ(d.missing_in_current.size(), 2u);
  EXPECT_TRUE(listed(d.missing_in_current, ".old_bytes"));
  EXPECT_TRUE(listed(d.missing_in_current, ".faults.dma_injected"));
  EXPECT_TRUE(listed(d.added_in_current, ".new_bytes"));
  EXPECT_TRUE(listed(d.added_in_current, "[p].stall_s"));
  EXPECT_TRUE(d.entries.empty());
}

TEST(Diff, ZeroBaselineNonzeroCurrentRegresses) {
  obs::RunReport a("bench"), b("bench");
  a.add_run("r").counters["spill_bytes"] = 0;
  b.add_run("r").counters["spill_bytes"] = 4096;
  EXPECT_TRUE(obs::diff_reports(a.to_json(), b.to_json()).has_regression());
}

// ----------------------------------------------------- tenant counters

// One tiny job through a real JobServer, exported the way bench/server_mixed
// does it: the naming contract the round-trip and diff tests below pin.
void tenant_metrics(obs::MetricsRegistry& reg) {
  Machine m(test_config(4.0));
  server::JobServer srv(m);
  srv.add_tenant("alpha", 64 * 1024);
  auto res = std::make_shared<server::SortJobResult>();
  srv.submit(server::make_sort_job("alpha", "tiny",
                                   server::SortBackend::kGnu, 2048, 11, res));
  srv.drain();
  EXPECT_TRUE(res->verified);
  srv.export_metrics(reg);
}

TEST(RunReport, TenantCountersRoundTripThroughSchema) {
  obs::MetricsRegistry reg;
  tenant_metrics(reg);
  obs::RunReport rep("server");
  obs::RunRecord& rec = rep.add_run("mixed");
  rec.add_metrics(reg);

  const obs::RunReport back = obs::RunReport::from_json(rep.to_json());
  ASSERT_EQ(back.runs.size(), 1u);
  const auto& c = back.runs[0].counters;
  EXPECT_EQ(c.at("tenant.alpha.quota_bytes"), 64u * 1024);
  EXPECT_EQ(c.at("tenant.alpha.admissions"), 1u);
  EXPECT_EQ(c.at("tenant.alpha.rejections"), 0u);
  EXPECT_EQ(c.at("tenant.alpha.jobs_completed"), 1u);
  EXPECT_EQ(c.at("tenant.alpha.phases"), 3u);
  EXPECT_EQ(c.at("tenant.alpha.attributed_far_bytes"),
            reg.counters().at("tenant.alpha.attributed_far_bytes"));
  EXPECT_DOUBLE_EQ(back.runs[0].gauges.at("tenant.alpha.degrade_level"),
                   0.0);
}

TEST(Diff, TenantLeavesAbsentFromOldBaselineAreAdditionsNotRegressions) {
  // A baseline checked in before the job server existed, diffed against a
  // current run that exports tenant.* counters: the new leaves are listed
  // as additions — visible, but never counted as regressions, so old
  // baselines keep gating the leaves they do have.
  obs::RunReport a("bench"), b("bench");
  a.add_run("mixed").counters["machine.far_read_bytes"] = 100;
  obs::RunRecord& rb = b.add_run("mixed");
  rb.counters["machine.far_read_bytes"] = 100;
  obs::MetricsRegistry reg;
  tenant_metrics(reg);
  rb.add_metrics(reg);
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_FALSE(d.has_regression());
  EXPECT_TRUE(d.missing_in_current.empty());
  bool listed = false;
  for (const auto& p : d.added_in_current)
    listed |= p.find("tenant.alpha.admissions") != std::string::npos;
  EXPECT_TRUE(listed);
}

TEST(Diff, RegressedTenantCounterGatesOnceBaselined) {
  // Once both sides carry tenant counters they are ordinary cost leaves:
  // a tenant suddenly burning more attributed far traffic is a regression
  // like any other.
  obs::RunReport a("bench"), b("bench");
  a.add_run("mixed").counters["tenant.alpha.attributed_far_bytes"] = 1000;
  b.add_run("mixed").counters["tenant.alpha.attributed_far_bytes"] = 2000;
  const obs::DiffReport d = obs::diff_reports(a.to_json(), b.to_json());
  EXPECT_TRUE(d.has_regression());
  ASSERT_EQ(d.regressions(), 1u);
}

TEST(Diff, GoogleBenchmarkShapedJsonWorks) {
  // The diff is schema-tolerant: gbench output has numeric cost leaves
  // (real_time/cpu_time) inside a "benchmarks" array keyed by "name".
  const char* base = R"({"benchmarks": [
    {"name": "BM_X/4", "real_time": 100.0, "cpu_time": 90.0},
    {"name": "BM_Y/8", "real_time": 50.0, "cpu_time": 45.0}]})";
  const char* worse = R"({"benchmarks": [
    {"name": "BM_X/4", "real_time": 200.0, "cpu_time": 180.0},
    {"name": "BM_Y/8", "real_time": 50.0, "cpu_time": 45.0}]})";
  const obs::DiffReport d =
      obs::diff_reports(Json::parse(base), Json::parse(worse));
  EXPECT_TRUE(d.has_regression());
  for (const auto& e : d.entries) {
    if (e.regression) {
      EXPECT_NE(e.path.find("BM_X/4"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace tlm
