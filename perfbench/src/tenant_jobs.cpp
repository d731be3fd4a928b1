// tenant_jobs — one JobServer over one Machine (4 workers, 256 KiB near,
// configured like bench/server_mixed), driven as a closed loop by 4 client
// threads with think time 0, one per tenant: three tenants with a full
// quota and one 4 KiB thrasher. Each client submits a job, waits for it to
// settle, then submits its next. Every 6th job is staged k-means (n = 2500),
// the rest cycle through the five sort backends (n = 12000). One job is one
// server job. Each tenant runs a fixed number of jobs, in blocks that all
// four clients start together.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <latch>
#include <map>
#include <memory>
#include <thread>

#include "common.hpp"
#include "common/rng.hpp"
#include "kmeans/kmeans.hpp"
#include "scratchpad/machine.hpp"
#include "server/job_server.hpp"
#include "server/jobs.hpp"

namespace perfbench {
namespace {

namespace srv = tlm::server;

constexpr std::size_t kTenants = 4;  // t0, t1, t2 and the thrasher
constexpr std::size_t kThrasher = 3;
constexpr std::uint64_t kThrasherQuota = 4 * tlm::KiB;
// Distinct jobs per tenant; a client cycles through them, so every input is
// known at set-up and the k-means references can be computed there.
constexpr std::size_t kJobCycle = 240;
// The run is this many blocks of equal work. Each host figure is the median
// of the blocks' figures, so a disturbed stretch of the run moves only its
// own blocks; a traced run alternates untraced and traced blocks.
constexpr std::size_t kBlocks = 15;
// Each tenant's job count is sized from --seconds at this fixed nominal rate,
// never a measured one: one --seconds always means the same work, so the
// Machine's phase history, peak_rss_mb and the figures all cover identical
// work whatever the host's speed.
constexpr double kJobsPerTenantSecond = 150;
constexpr std::size_t kDims = 4, kClusters = 8;

struct Sizes {
  std::size_t sort_n = 0, kmeans_n = 0;
};

tlm::TwoLevelConfig mix_config() {
  tlm::TwoLevelConfig cfg = tlm::test_config(4.0);
  cfg.near_capacity = 256 * tlm::KiB;
  cfg.cache_bytes = 32 * tlm::KiB;
  cfg.threads = 4;
  cfg.overlap_dma = true;
  return cfg;
}

srv::JobServer::Options server_options() {
  srv::JobServer::Options opt;
  // Fewer admission slots than clients, so submitters exercise backoff.
  opt.max_outstanding = 2;
  opt.max_queue_per_tenant = 4;
  opt.admission_retry_budget = 64;
  return opt;
}

std::string tenant_name(std::size_t t) {
  if (t == kThrasher) return "thrasher";
  std::string name = "t";
  return name += std::to_string(t);
}

bool is_kmeans(std::size_t idx) { return idx % 6 == 5; }

std::uint64_t job_seed(std::uint64_t seed, std::size_t t, std::size_t idx) {
  return seed + 1000003ULL * t + 7919ULL * idx;
}

struct JobOutput {
  std::shared_ptr<srv::SortJobResult> sort;
  std::shared_ptr<srv::KMeansJobResult> kmeans;
};

struct JobRec {
  double latency = 0;  // wall seconds, submit -> settled
  std::size_t idx = 0;  // position in the tenant's job cycle
  std::uint64_t output_hash = 0;  // sort jobs: hash of the sorted output
  bool done = false, ok = false, kmeans = false;
};

std::uint64_t hash_keys(const std::vector<std::uint64_t>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t x : v) h = (h ^ x) * 0x100000001b3ULL;
  return h;
}

struct Server {
  std::unique_ptr<tlm::Machine> machine;
  std::unique_ptr<srv::JobServer> server;
  // Solo kmeans_staged centroids per [tenant][job index].
  std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> ref;
};

srv::JobSpec make_job(const Sizes& sz, std::uint64_t seed, std::size_t t,
                      std::size_t idx, JobOutput& out) {
  const std::uint64_t s = job_seed(seed, t, idx);
  const std::string name = "job" + std::to_string(idx);
  if (is_kmeans(idx)) {
    out.kmeans = std::make_shared<srv::KMeansJobResult>();
    return srv::make_kmeans_job(tenant_name(t), name, sz.kmeans_n, kDims,
                                kClusters, s, out.kmeans);
  }
  out.sort = std::make_shared<srv::SortJobResult>();
  return srv::make_sort_job(tenant_name(t), name,
                            srv::kSortBackends[idx % 5], sz.sort_n, s,
                            out.sort);
}

// Wraps every phase body in a span, parented to the job's span. The sort and
// cluster phases belong to their layers; a job's own input generation and
// std::sort check belong to none the benchmark measures, so they get a
// layer of their own ("job") and stay out of the server's self time.
void wrap_phases(srv::JobSpec& spec, SpanRecorder& spans, std::uint64_t job,
                 std::uint64_t request) {
  for (srv::JobPhase& p : spec.phases) {
    std::string name = p.name == "sort"      ? "sort.phase"
                       : p.name == "cluster" ? "kmeans.cluster"
                                             : "job." + p.name;
    p.fn = [fn = std::move(p.fn), name = std::move(name), &spans, job,
            request](srv::JobContext& ctx) {
      ScopedSpan span(spans, name, job, request);
      fn(ctx);
    };
  }
}

bool job_ok(const Server& s, std::size_t t, std::size_t idx,
            const JobOutput& out) {
  if (out.kmeans) return out.kmeans->result.centroids == s.ref.at({t, idx});
  return out.sort->verified;
}

// The host samples of one block.
struct Block {
  HostTime host;
  double keys = 0, done = 0;
  // Every job's latency on the CPU clock: the CPU time the process spent
  // while the job was open. It is read as the job's wall latency times its
  // block's CPU/wall ratio, because a thread reading the process CPU clock
  // sees the other running threads' time only as of their last 4 ms tick,
  // too coarse for jobs of a few milliseconds.
  std::vector<double> lat;
  // The block's figures; its tail is the highest percentile with 10 jobs
  // beyond it (p98.6 of 800 jobs at --seconds 20), which `*tail_q`
  // receives.
  HostFigures figures(double* tail_q) const {
    return {keys / host.cpu, done / host.cpu, median(lat),
            tail_latency(lat, tail_q)};
  }
};

// One block: every client runs `jobs` jobs, continuing its tenant's job
// sequence at position `first`, and appends its records to `recs`.
Block run_block(Server& s, const Sizes& sz, std::uint64_t seed,
                std::size_t first, std::size_t jobs, SpanRecorder& spans,
                std::vector<JobRec> (&recs)[kTenants]) {
  std::latch start(kTenants + 1);
  std::vector<std::thread> clients;
  std::vector<JobRec> block[kTenants];
  for (std::size_t t = 0; t < kTenants; ++t) {
    block[t].reserve(jobs);
    clients.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t k = first; k < first + jobs; ++k) {
        const std::size_t idx = k % kJobCycle;
        JobOutput out;
        srv::JobSpec spec = make_job(sz, seed, t, idx, out);
        const std::uint64_t request = t * 1'000'000 + k + 1;
        const std::uint64_t job = spans.begin(
            is_kmeans(idx) ? "server.job.kmeans" : "server.job.sort", 0,
            request);
        if (spans.enabled()) wrap_phases(spec, spans, job, request);
        const double t0 = now_s();
        srv::JobHandle h = s.server->submit(std::move(spec));
        h.wait();
        const double lat = now_s() - t0;
        spans.end(job);
        JobRec r;
        r.done = h.done();
        r.latency = r.done ? lat : INFINITY;  // refused/failed misses the tail
        r.kmeans = is_kmeans(idx);
        r.ok = r.done && job_ok(s, t, idx, out);
        r.idx = idx;
        if (out.sort) r.output_hash = hash_keys(out.sort->output);
        block[t].push_back(r);
      }
    });
  }
  const Stopwatch sw;
  start.arrive_and_wait();
  for (std::thread& c : clients) c.join();
  Block out;
  out.host = sw.elapsed();
  const double cpu_per_wall = out.host.cpu / out.host.wall;
  for (std::size_t t = 0; t < kTenants; ++t)
    for (const JobRec& r : block[t]) {
      out.lat.push_back(r.latency * cpu_per_wall);
      recs[t].push_back(r);
      if (!r.done) continue;
      out.keys += static_cast<double>(r.kmeans ? sz.kmeans_n : sz.sort_n);
      out.done += 1;
    }
  return out;
}

// Counters summed over tenants (the thrasher's stager separately).
struct Counters {
  double admissions = 0, backoff_stalls = 0, rejections = 0, quota_denials = 0,
         phases_run = 0;
  StagerStats stager, thrasher_stager;
};

// Adds what the counters rose by from `before` to `after` into `acc`.
void add_delta(Counters& acc, const Counters& before, const Counters& after) {
  acc.admissions += after.admissions - before.admissions;
  acc.backoff_stalls += after.backoff_stalls - before.backoff_stalls;
  acc.rejections += after.rejections - before.rejections;
  acc.quota_denials += after.quota_denials - before.quota_denials;
  acc.phases_run += after.phases_run - before.phases_run;
  acc.stager += tlm::stager_delta(after.stager, before.stager);
  acc.thrasher_stager +=
      tlm::stager_delta(after.thrasher_stager, before.thrasher_stager);
}

Counters counters(const srv::JobServer& server) {
  Counters c;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const srv::TenantStats ts = server.tenant_stats(tenant_name(t));
    c.admissions += static_cast<double>(ts.admissions);
    c.backoff_stalls += static_cast<double>(ts.backoff_stalls);
    c.rejections += static_cast<double>(ts.rejections);
    c.quota_denials += static_cast<double>(ts.quota_denials);
    c.phases_run += static_cast<double>(ts.phases_run);
    c.stager += ts.stager;
    if (t == kThrasher) c.thrasher_stager = ts.stager;
  }
  return c;
}

// `c` holds the counters' rise over the traced blocks, `wall_s` their wall
// time.
void report_server_layers(Result& res, const SpanRecorder& spans,
                          const Counters& c, double wall_s) {
  const std::vector<Span> all = spans.snapshot();
  std::map<std::uint64_t, double> child_s;
  std::vector<double> phase_s;
  for (const Span& s : all) {
    const bool phase = s.name == "sort.phase" || s.name == "kmeans.cluster" ||
                       s.name.rfind("job.", 0) == 0;
    if (!phase || s.end < 0) continue;
    phase_s.push_back(s.end - s.start);
    child_s[s.parent] += s.end - s.start;
  }
  std::vector<double> wait_s;
  for (const Span& s : all)
    if (s.name.rfind("server.job.", 0) == 0 && s.end >= 0)
      wait_s.push_back((s.end - s.start) - child_s[s.id]);
  double phase_total = 0;
  for (double x : phase_s) phase_total += x;
  res.set("server.phase_ms_p50", quantile(phase_s, 0.5) * 1e3);
  res.set("server.phase_ms_p99", quantile(phase_s, 0.99) * 1e3);
  res.set("server.wait_ms_p50", quantile(wait_s, 0.5) * 1e3);
  res.set("server.wait_ms_p99", quantile(wait_s, 0.99) * 1e3);
  res.set("server.overhead_share", 1.0 - phase_total / wall_s);
  res.set("server.admissions", c.admissions);
  res.set("server.backoff_stalls", c.backoff_stalls);
  res.set("server.rejections", c.rejections);
  res.set("server.quota_denials", c.quota_denials);
  res.set("server.phases_run", c.phases_run);
  res.set("server.sort_job_ms_p50",
          quantile(spans.durations("server.job.sort"), 0.5) * 1e3);
  res.set("server.kmeans_job_ms_p50",
          quantile(spans.durations("server.job.kmeans"), 0.5) * 1e3);
  res.set("kmeans.cluster_ms_p50",
          quantile(spans.durations("kmeans.cluster"), 0.5) * 1e3);
  res.set("stager.batches", static_cast<double>(c.stager.batches));
  res.set("stager.prefetch_bytes",
          static_cast<double>(c.stager.prefetch_bytes));
  res.set("stager.degrade_to_single",
          static_cast<double>(c.thrasher_stager.degrade_to_single));
  res.set("stager.degrade_to_direct",
          static_cast<double>(c.thrasher_stager.degrade_to_direct));
}

}  // namespace

Result run_tenant_jobs(const Options& opt, SpanRecorder& spans) {
  Result res;
  Sizes sz;
  sz.sort_n = std::max<std::size_t>(12'000 / opt.scale, 1'000);
  sz.kmeans_n = std::max<std::size_t>(2'500 / opt.scale, 200);
  const tlm::TwoLevelConfig cfg = mix_config();

  Server s;
  // Phase-model entries each tenant had before the timed region (warm-up).
  std::size_t phase_offset[kTenants] = {};
  const double setup_s = timed_setup([&] {
    s.server.reset();  // drains before its Machine is replaced
    s.machine = std::make_unique<tlm::Machine>(cfg);
    s.server = std::make_unique<srv::JobServer>(*s.machine, server_options());
    for (std::size_t t = 0; t < kTenants; ++t)
      s.server->add_tenant(tenant_name(t),
                           t == kThrasher ? kThrasherQuota : cfg.near_capacity);
    s.ref.clear();
    for (std::size_t t = 0; t < kTenants; ++t)
      for (std::size_t idx = 0; idx < kJobCycle; ++idx) {
        if (!is_kmeans(idx)) continue;
        const std::uint64_t seed = job_seed(opt.seed, t, idx);
        tlm::Machine solo(cfg);
        const std::vector<double> pts =
            tlm::kmeans::make_blobs(sz.kmeans_n, kDims, kClusters, seed);
        tlm::kmeans::KMeansOptions ko;
        ko.k = kClusters;
        ko.dims = kDims;
        ko.seed = seed;
        s.ref[{t, idx}] =
            tlm::kmeans::kmeans_staged(solo, std::span<const double>(pts), ko)
                .centroids;
      }
    // Warm-up: one sort and one k-means job per tenant.
    for (std::size_t t = 0; t < kTenants; ++t)
      for (std::size_t idx : {std::size_t{0}, std::size_t{5}}) {
        JobOutput out;
        srv::JobHandle h =
            s.server->submit(make_job(sz, opt.seed, t, idx, out));
        h.wait();
        res.check(h.done() && job_ok(s, t, idx, out),
                  "tenant_jobs warm-up " + tenant_name(t));
      }
    for (std::size_t t = 0; t < kTenants; ++t)
      phase_offset[t] =
          s.server->tenant_stats(tenant_name(t)).phase_model_seconds.size();
  });
  res.set("setup_s", setup_s);

  // At least one full job cycle per tenant, for model_p99_ms.
  const std::size_t per_block = std::max<std::size_t>(
      (kJobCycle + kBlocks - 1) / kBlocks,
      static_cast<std::size_t>(
          std::llround(opt.seconds * kJobsPerTenantSecond / kBlocks)));
  std::vector<JobRec> recs[kTenants];
  for (std::vector<JobRec>& r : recs) r.reserve(kBlocks * per_block);
  std::vector<Block> blocks[2];  // [untraced, traced]
  Counters layer;  // the counters' rise over the traced blocks
  double traced_wall = 0;
  SpanRecorder off(false);
  const double start = now_s();
  std::size_t b = 0;
  for (; b < kBlocks; ++b) {
    // A badly disturbed host (CPU steal past 10 % ran blocks at half speed)
    // would stretch the fixed work without bound. Past twice the nominal
    // time the run starts no new block, once it holds a full job cycle and
    // whole untraced/traced pairs; the # lines then report fewer blocks.
    if (b % 2 == 0 && b * per_block >= kJobCycle &&
        now_s() - start > 2 * opt.seconds)
      break;
    const bool on = opt.trace && b % 2 == 1;
    const Counters before = counters(*s.server);
    blocks[on].push_back(run_block(s, sz, opt.seed, b * per_block, per_block,
                                   on ? spans : off, recs));
    if (on) {
      traced_wall += blocks[on].back().host.wall;
      add_delta(layer, before, counters(*s.server));
    }
  }
  double tail_q = 0;
  std::vector<HostFigures> figures[2];  // [untraced, traced], per block
  HostTime host[2];
  for (int leg = 0; leg < 2; ++leg)
    for (const Block& k : blocks[leg]) {
      figures[leg].push_back(k.figures(&tail_q));
      host[leg] += k.host;
    }
  if (opt.trace) {
    report_overhead(res, figures[0], figures[1]);
    report_server_layers(res, spans, layer, traced_wall);
  }
  report_host(res, median_figures(figures[opt.trace]), host[opt.trace]);
  std::string note = "tenant_jobs: " + std::to_string(b) + " of " +
                     std::to_string(kBlocks) + " blocks of " +
                     std::to_string(per_block) +
                     " jobs per tenant; jobs per CPU second per block:";
  for (const Block& k : blocks[opt.trace])
    note += ' ' + std::to_string(std::lround(k.done / k.host.cpu));
  res.notes.push_back(note);
  char tail[16];
  std::snprintf(tail, sizeof tail, "%.1f", tail_q * 100);
  res.notes.push_back("tenant_jobs: host figures are medians over blocks of " +
                      std::to_string(kTenants * per_block) +
                      " jobs; job_p99_ms is each block's p" + tail);

  // Checks, outside the timed region: every job settled kDone with its
  // output verified (sorts by the job's own std::sort check, k-means by
  // bit-identical centroids), and every sort output's hash matches std::sort
  // of the job's regenerated input.
  std::size_t jobs = 0;
  for (std::size_t t = 0; t < kTenants; ++t)
    for (const JobRec& r : recs[t]) {
      ++jobs;
      res.check(r.ok, "tenant_jobs " + tenant_name(t) +
                          " job settled and verified");
    }
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> expect;
  for (std::size_t t = 0; t < kTenants; ++t)
    for (const JobRec& r : recs[t]) {
      if (r.kmeans || !r.done) continue;
      auto it = expect.find({t, r.idx});
      if (it == expect.end()) {
        std::vector<std::uint64_t> keys =
            tlm::random_keys(sz.sort_n, job_seed(opt.seed, t, r.idx));
        std::sort(keys.begin(), keys.end());
        it = expect.emplace(std::make_pair(t, r.idx), hash_keys(keys)).first;
      }
      res.check(r.output_hash == it->second,
                "tenant_jobs " + tenant_name(t) + " job" +
                    std::to_string(r.idx) + " output == std::sort");
    }

  // Modeled latency of the well-quota'd tenants' sort phases, over their
  // first full job cycle. k-means phases are left out: at n = 2500 a fifth of
  // them stop at the iteration cap with identical modeled times, which
  // would pin the p99 to one constant for nearly every seed.
  std::vector<double> model;
  std::size_t short_cycles = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    if (t == kThrasher) continue;
    const std::vector<double> pm =
        s.server->tenant_stats(tenant_name(t)).phase_model_seconds;
    std::size_t pos = phase_offset[t];
    for (std::size_t idx = 0; idx < kJobCycle; ++idx) {
      const std::size_t phases = is_kmeans(idx) ? 2 : 3;  // gen, sort, check
      if (pos + phases > pm.size()) {
        ++short_cycles;
        break;
      }
      if (!is_kmeans(idx)) model.push_back(pm[pos + 1]);
      pos += phases;
    }
  }
  res.check(short_cycles == 0,
            "tenant_jobs every well-quota'd tenant completed a job cycle");
  // Rounded to 1 ps: phase_model_seconds are differences of cumulative
  // totals, so their last bits depend on how the tenants interleaved.
  res.set("model_p99_ms", std::round(quantile(model, 0.99) * 1e9) / 1e6);
  res.notes.push_back("tenant_jobs: " + std::to_string(jobs) +
                      " jobs settled; model_p99_ms over " +
                      std::to_string(model.size()) + " sort phases");

  const Headline h = model_headline(cfg, sz.sort_n, opt.seed, 8, res);
  report_headline(res, h.gnu_s, h.nm_s[0], h.nm_s[1], h.nm_s[2], h.zipf_gnu_s,
                  h.zipf_nm8_s);
  return res;
}

}  // namespace perfbench
