// tlm_perfbench — the repository benchmark program.
//
//   tlm_perfbench --workload <table1_sim|sort_counting|trace_offline|
//                 tenant_jobs> --seed <n> --seconds <s> --trace <0|1>
//                 [--scale <k>]
//
// Prints a human-readable digest, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// any correctness check failed, 2 on a usage error, 3 when a workload left
// an end-to-end metric unset. perfbench/README.md documents every workload
// and metric.
#include <malloc.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "tlm_perfbench: " << why
            << "\nusage: tlm_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <k>]\n";
  return 2;
}

void print_json_number(double v) {
  if (!std::isfinite(v)) {
    std::printf("null");
    return;
  }
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v), have_seed = true;
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--scale") opt.scale = std::stoull(v);
      else return usage(("unknown flag " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (opt.seconds <= 0 || opt.scale == 0) return usage("bad --seconds/--scale");

  Result (*run)(const Options&, SpanRecorder&) = nullptr;
  if (opt.workload == "table1_sim") run = run_table1_sim;
  else if (opt.workload == "sort_counting") run = run_sort_counting;
  else if (opt.workload == "trace_offline") run = run_trace_offline;
  else if (opt.workload == "tenant_jobs") run = run_tenant_jobs;
  else return usage("unknown --workload");

  // Fixed mmap and trim thresholds turn off glibc's adaptive ones, so large
  // buffers go back to the kernel when freed and peak_rss_mb tracks live
  // data rather than which thread's arena happened to keep a freed block.
  // 64 KiB is below tenant_jobs' 96 KB per-job key buffers: left in the
  // per-thread arenas, their fragmentation moved that workload's peak RSS by
  // a third from run to run.
  mallopt(M_MMAP_THRESHOLD, 64 * 1024);
  mallopt(M_TRIM_THRESHOLD, 256 * 1024);
  ::mkdir(kOutDir, 0755);
  SpanRecorder spans(opt.trace);
  Result res = run(opt, spans);
  res.set("peak_rss_mb", peak_rss_mib());
  if (opt.trace) {
    const auto self = spans.self_seconds_by_layer();
    for (const char* layer :
         {"sort", "trace", "sim", "analyze", "server", "kmeans"}) {
      const auto it = self.find(layer);
      res.set(std::string("self_s.") + layer,
              it == self.end() ? 0.0 : it->second);
    }
    res.set("spans.recorded", static_cast<double>(spans.snapshot().size()));
    const std::string path = std::string(kOutDir) + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    spans.write_json(path);
    res.notes.push_back("spans written to " + path);
  }

  for (const std::string& n : res.notes) std::cout << "# " << n << "\n";
  for (const std::string& f : res.failures)
    std::cout << "# CHECK FAILED: " << f << "\n";

  // A layer the workload does not run reads 0 in the traced run; every
  // end-to-end metric must have been measured.
  const auto specs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& s : specs) {
    const auto it = res.metrics.find(s.name);
    if (it == res.metrics.end()) {
      if (!opt.trace) {
        std::cerr << "tlm_perfbench: workload did not set " << s.name << "\n";
        return 3;
      }
      continue;
    }
    std::cout << "# " << s.name << " = " << it->second << " "
              << s.unit << "\n";
  }
  std::cout.flush();

  const bool correct = res.failed == 0 && res.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = res.metrics.find(specs[i].name);
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                specs[i].name.c_str());
    print_json_number(it == res.metrics.end() ? 0.0 : it->second);
    std::printf(", \"unit\": \"%s\"}", specs[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
