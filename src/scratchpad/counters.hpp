// Traffic and time accounting for the counting backend.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "scratchpad/space.hpp"

namespace tlm {

// One cell of the traffic ledger: what one space saw in one direction from
// one issuer (the cores, or the DMA engine via Machine::dma_copy).
struct TrafficCell {
  std::uint64_t bytes = 0;
  std::uint64_t blocks = 0;  // §II block transfers, partial blocks round up
  std::uint64_t bursts = 0;  // transfer calls, each paying one latency

  TrafficCell& operator+=(const TrafficCell& o) {
    bytes += o.bytes;
    blocks += o.blocks;
    bursts += o.bursts;
    return *this;
  }
};

// The Machine's only record of traffic, one per thread: a cell per
// space × direction × issuer. Every traffic counter of PhaseStats is a sum
// of some of these cells (kTrafficFields below), so a directional counter
// and its combined counter cannot disagree — read + write == combined holds
// by construction.
struct TrafficLedger {
  TrafficCell cells[2][2][2];  // [Space][is_write][via_dma]

  TrafficCell& at(Space s, bool is_write, bool via_dma) {
    return cells[static_cast<int>(s)][is_write][via_dma];
  }

  TrafficLedger& operator+=(const TrafficLedger& o) {
    for (int s = 0; s < 2; ++s)
      for (int w = 0; w < 2; ++w)
        for (int d = 0; d < 2; ++d) cells[s][w][d] += o.cells[s][w][d];
    return *this;
  }
};

// One phase of an algorithm (e.g. "phase1.sort_chunks"). Byte counts are
// aggregated over all threads; `compute_ops_max` is the per-thread maximum
// (the parallel span), `compute_ops_total` the aggregate work.
struct PhaseStats {
  std::string name;

  std::uint64_t far_read_bytes = 0;
  std::uint64_t far_write_bytes = 0;
  std::uint64_t near_read_bytes = 0;
  std::uint64_t near_write_bytes = 0;

  // Block transfers in the §II model: far blocks of B bytes, near blocks of
  // ρB bytes, each charged per stream/copy call (partial blocks round up).
  std::uint64_t far_blocks = 0;
  std::uint64_t near_blocks = 0;

  // Discrete transfer bursts (copy/stream calls). Each burst pays the
  // memory's access latency once — this is what makes many small transfers
  // slower than few large ones at equal byte volume (§IV-D's motivation for
  // the bucket metadata).
  std::uint64_t far_bursts = 0;
  std::uint64_t near_bursts = 0;

  // The slice of the traffic above that was issued as DMA descriptors
  // (Machine::dma_copy) rather than core loads/stores. Under `overlap_dma`
  // only this slice runs in the background engine and overlaps with core
  // work (§VI-B); the split is what makes the overlap model honest.
  std::uint64_t dma_far_bytes = 0;
  std::uint64_t dma_near_bytes = 0;
  std::uint64_t dma_far_bursts = 0;
  std::uint64_t dma_near_bursts = 0;

  // Read/write split of the block, burst, and DMA counters above, for the
  // asymmetric-ω cost model (bytes were already split as *_read_bytes /
  // *_write_bytes). Like every traffic counter they are derived from the
  // TrafficLedger cells when a phase is folded, never charged on their own.
  std::uint64_t far_read_blocks = 0;
  std::uint64_t far_write_blocks = 0;
  std::uint64_t near_read_blocks = 0;
  std::uint64_t near_write_blocks = 0;
  std::uint64_t far_read_bursts = 0;
  std::uint64_t far_write_bursts = 0;
  std::uint64_t near_read_bursts = 0;
  std::uint64_t near_write_bursts = 0;
  std::uint64_t dma_far_read_bytes = 0;
  std::uint64_t dma_far_write_bytes = 0;
  std::uint64_t dma_near_read_bytes = 0;
  std::uint64_t dma_near_write_bytes = 0;
  std::uint64_t dma_far_read_bursts = 0;
  std::uint64_t dma_far_write_bursts = 0;
  std::uint64_t dma_near_read_bursts = 0;
  std::uint64_t dma_near_write_bursts = 0;

  // Merge-partition balance: how many k-way partitions were computed in
  // this phase, and the worst observed (max slice / ideal slice) ratio —
  // 1.0 means every thread got an exactly even share of the merge.
  std::uint64_t partition_splits = 0;
  double partition_imbalance_max = 0;

  double compute_ops_total = 0;
  double compute_ops_max = 0;

  // Time attributed to this phase by the analytic model.
  double far_s = 0;
  double near_s = 0;
  double compute_s = 0;
  double dma_s = 0;  // background DMA engine busy time (overlap model)
  // Injected-fault stall and retry-backoff time charged to this phase (the
  // per-thread maximum — stalls serialize the thread that hits them, so the
  // phase pays the worst-stalled thread's span). Zero in clean runs.
  double stall_s = 0;
  double seconds = 0;

  // Real wall-clock spent between begin_phase and end_phase on the host —
  // the observability layer's timing, orthogonal to the modeled `seconds`.
  double host_seconds = 0;

  std::uint64_t far_bytes() const { return far_read_bytes + far_write_bytes; }
  std::uint64_t near_bytes() const {
    return near_read_bytes + near_write_bytes;
  }
  std::uint64_t dma_bytes() const { return dma_far_bytes + dma_near_bytes; }

  // Whether anything was charged: phases with no traffic and no compute
  // (e.g. the implicit "(run)" phase of callers who structure everything
  // explicitly) are not recorded.
  bool has_activity() const {
    return far_bytes() || near_bytes() || compute_ops_total > 0;
  }

  PhaseStats& operator+=(const PhaseStats& o);
};

// ---- the PhaseStats field table -------------------------------------------
// Every numeric field of PhaseStats, by name (also its run-report JSON key)
// and member. The per-field operations — +=, phase_delta, the run-report
// JSON round trip, the job server's attribution check — all loop over these
// tables instead of listing fields by hand.
template <typename T>
struct PhaseField {
  const char* name;
  T PhaseStats::*member;
  // Combines as a running maximum rather than a sum (and so has no delta).
  bool running_max = false;
};

// The ledger cells a traffic field sums: one space, the directions in the
// `dirs` mask (bit 0 reads, bit 1 writes), the issuers in the `issuers` mask
// (bit 0 the cores, bit 1 the DMA engine), and one cell quantity.
struct CellSet {
  static constexpr unsigned kRead = 1, kWrite = 2, kReadWrite = 3;
  static constexpr unsigned kDma = 2, kAnyIssuer = 3;

  Space space;
  unsigned dirs;
  unsigned issuers;
  std::uint64_t TrafficCell::*quantity;

  std::uint64_t sum(const TrafficLedger& l) const {
    std::uint64_t v = 0;
    for (unsigned w = 0; w < 2; ++w)
      for (unsigned d = 0; d < 2; ++d)
        if (((dirs >> w) & 1u) && ((issuers >> d) & 1u))
          v += l.cells[static_cast<int>(space)][w][d].*quantity;
    return v;
  }
};

// A traffic counter and the cells it is derived from. Machine's phase fold
// is the only place that writes these fields.
struct TrafficField {
  PhaseField<std::uint64_t> field;
  CellSet cells;
};

#define TLM_TRAFFIC(f, space, dirs, issuers, qty)               \
  TrafficField{{#f, &PhaseStats::f},                           \
               {Space::space, CellSet::dirs, CellSet::issuers, \
                &TrafficCell::qty}}
inline constexpr TrafficField kTrafficFields[] = {
    TLM_TRAFFIC(far_read_bytes, Far, kRead, kAnyIssuer, bytes),
    TLM_TRAFFIC(far_write_bytes, Far, kWrite, kAnyIssuer, bytes),
    TLM_TRAFFIC(near_read_bytes, Near, kRead, kAnyIssuer, bytes),
    TLM_TRAFFIC(near_write_bytes, Near, kWrite, kAnyIssuer, bytes),
    TLM_TRAFFIC(far_blocks, Far, kReadWrite, kAnyIssuer, blocks),
    TLM_TRAFFIC(near_blocks, Near, kReadWrite, kAnyIssuer, blocks),
    TLM_TRAFFIC(far_bursts, Far, kReadWrite, kAnyIssuer, bursts),
    TLM_TRAFFIC(near_bursts, Near, kReadWrite, kAnyIssuer, bursts),
    TLM_TRAFFIC(dma_far_bytes, Far, kReadWrite, kDma, bytes),
    TLM_TRAFFIC(dma_near_bytes, Near, kReadWrite, kDma, bytes),
    TLM_TRAFFIC(dma_far_bursts, Far, kReadWrite, kDma, bursts),
    TLM_TRAFFIC(dma_near_bursts, Near, kReadWrite, kDma, bursts),
    TLM_TRAFFIC(far_read_blocks, Far, kRead, kAnyIssuer, blocks),
    TLM_TRAFFIC(far_write_blocks, Far, kWrite, kAnyIssuer, blocks),
    TLM_TRAFFIC(near_read_blocks, Near, kRead, kAnyIssuer, blocks),
    TLM_TRAFFIC(near_write_blocks, Near, kWrite, kAnyIssuer, blocks),
    TLM_TRAFFIC(far_read_bursts, Far, kRead, kAnyIssuer, bursts),
    TLM_TRAFFIC(far_write_bursts, Far, kWrite, kAnyIssuer, bursts),
    TLM_TRAFFIC(near_read_bursts, Near, kRead, kAnyIssuer, bursts),
    TLM_TRAFFIC(near_write_bursts, Near, kWrite, kAnyIssuer, bursts),
    TLM_TRAFFIC(dma_far_read_bytes, Far, kRead, kDma, bytes),
    TLM_TRAFFIC(dma_far_write_bytes, Far, kWrite, kDma, bytes),
    TLM_TRAFFIC(dma_near_read_bytes, Near, kRead, kDma, bytes),
    TLM_TRAFFIC(dma_near_write_bytes, Near, kWrite, kDma, bytes),
    TLM_TRAFFIC(dma_far_read_bursts, Far, kRead, kDma, bursts),
    TLM_TRAFFIC(dma_far_write_bursts, Far, kWrite, kDma, bursts),
    TLM_TRAFFIC(dma_near_read_bursts, Near, kRead, kDma, bursts),
    TLM_TRAFFIC(dma_near_write_bursts, Near, kWrite, kDma, bursts),
};
#undef TLM_TRAFFIC

#define TLM_FIELD(f) {#f, &PhaseStats::f}
inline constexpr PhaseField<std::uint64_t> kCountFields[] = {
    TLM_FIELD(partition_splits),
};
inline constexpr PhaseField<double> kRealFields[] = {
    {"partition_imbalance_max", &PhaseStats::partition_imbalance_max,
     /*running_max=*/true},
    TLM_FIELD(compute_ops_total),
    TLM_FIELD(compute_ops_max),
    TLM_FIELD(far_s),
    TLM_FIELD(near_s),
    TLM_FIELD(compute_s),
    TLM_FIELD(dma_s),
    TLM_FIELD(stall_s),
    TLM_FIELD(seconds),
    TLM_FIELD(host_seconds),
};
#undef TLM_FIELD

// A field added to PhaseStats without a table entry fails here.
static_assert(sizeof(PhaseStats) ==
                  sizeof(std::string) +
                      sizeof(std::uint64_t) * std::size(kTrafficFields) +
                      sizeof(std::uint64_t) * std::size(kCountFields) +
                      sizeof(double) * std::size(kRealFields),
              "every PhaseStats field needs an entry in the field tables");

// Calls f(field) for every PhaseField of the three tables.
template <typename F>
constexpr void for_each_phase_field(F&& f) {
  for (const TrafficField& t : kTrafficFields) f(t.field);
  for (const auto& c : kCountFields) f(c);
  for (const auto& r : kRealFields) f(r);
}

inline PhaseStats& PhaseStats::operator+=(const PhaseStats& o) {
  for_each_phase_field([&](const auto& f) {
    auto& v = this->*f.member;
    v = f.running_max ? std::max(v, o.*f.member) : v + o.*f.member;
  });
  return *this;
}

// Counter-wise difference of two cumulative PhaseStats snapshots, for
// attributing machine-lifetime totals to a window of work (the job server
// brackets each scheduled tenant phase with Machine::totals() snapshots and
// charges the delta to that tenant). All summed counters subtract; the
// running-max fields (partition_imbalance_max) take the `after` value since
// a maximum has no meaningful difference. Callers must pass snapshots of the
// same monotone series (`after` taken later than `before`).
inline PhaseStats phase_delta(const PhaseStats& after,
                              const PhaseStats& before) {
  PhaseStats d;
  d.name = after.name;
  for_each_phase_field([&](const auto& f) {
    d.*f.member =
        f.running_max ? after.*f.member : after.*f.member - before.*f.member;
  });
  return d;
}

// Observables of the staged-streaming primitive (scratchpad/stager.hpp):
// how many batches flowed through staging buffers, how the gather traffic
// split between synchronous core copies and DMA-engine prefetches, and how
// often the oversized-item escape hatch fired. One StagerStats per Stager;
// Machine::note_stager folds them into a machine-lifetime aggregate that
// the observability layer exports alongside PhaseStats.
struct StagerStats {
  std::uint64_t batches = 0;          // items processed out of a buffer
  std::uint64_t sync_bytes = 0;       // gathered synchronously by cores
  std::uint64_t prefetch_batches = 0;
  std::uint64_t prefetch_bytes = 0;   // gathered by the DMA engine
  std::uint64_t fallback_direct = 0;  // oversized items processed from far
  std::uint64_t restarts = 0;         // pipeline restarts after a fallback

  // Degradation-ladder transitions (double-buffered -> single-buffered ->
  // direct-from-far) taken under near-memory pressure instead of aborting.
  std::uint64_t degrade_to_single = 0;
  std::uint64_t degrade_to_direct = 0;

  StagerStats& operator+=(const StagerStats& o) {
    batches += o.batches;
    sync_bytes += o.sync_bytes;
    prefetch_batches += o.prefetch_batches;
    prefetch_bytes += o.prefetch_bytes;
    fallback_direct += o.fallback_direct;
    restarts += o.restarts;
    degrade_to_single += o.degrade_to_single;
    degrade_to_direct += o.degrade_to_direct;
    return *this;
  }
};

// Machine-lifetime fault/retry accounting: how often the fallible paths
// were denied (injected or genuinely exhausted), how callers recovered
// (far fallbacks), and what the recovery cost the time model. Exported as
// faults.* / retries.* by the observability layer.
struct FaultStats {
  std::uint64_t near_alloc_injected = 0;   // try_alloc_near denials injected
  std::uint64_t near_alloc_exhausted = 0;  // genuine capacity misses
  std::uint64_t near_far_fallbacks = 0;    // near_or_far allocs that went far
  std::uint64_t dma_injected = 0;          // transient DMA failures observed
  std::uint64_t dma_retries = 0;           // re-issues after a DMA failure
  std::uint64_t far_stalls = 0;            // injected far-memory stalls
  double backoff_s = 0;                    // modeled retry backoff charged
  double stall_s = 0;                      // modeled injected stall charged

  FaultStats& operator+=(const FaultStats& o) {
    near_alloc_injected += o.near_alloc_injected;
    near_alloc_exhausted += o.near_alloc_exhausted;
    near_far_fallbacks += o.near_far_fallbacks;
    dma_injected += o.dma_injected;
    dma_retries += o.dma_retries;
    far_stalls += o.far_stalls;
    backoff_s += o.backoff_s;
    stall_s += o.stall_s;
    return *this;
  }
};

// Snapshot deltas for the stager/fault aggregates, same contract as
// phase_delta: every field is a monotone sum.
inline StagerStats stager_delta(const StagerStats& after,
                                const StagerStats& before) {
  StagerStats d;
  d.batches = after.batches - before.batches;
  d.sync_bytes = after.sync_bytes - before.sync_bytes;
  d.prefetch_batches = after.prefetch_batches - before.prefetch_batches;
  d.prefetch_bytes = after.prefetch_bytes - before.prefetch_bytes;
  d.fallback_direct = after.fallback_direct - before.fallback_direct;
  d.restarts = after.restarts - before.restarts;
  d.degrade_to_single = after.degrade_to_single - before.degrade_to_single;
  d.degrade_to_direct = after.degrade_to_direct - before.degrade_to_direct;
  return d;
}

inline FaultStats fault_delta(const FaultStats& after,
                              const FaultStats& before) {
  FaultStats d;
  d.near_alloc_injected =
      after.near_alloc_injected - before.near_alloc_injected;
  d.near_alloc_exhausted =
      after.near_alloc_exhausted - before.near_alloc_exhausted;
  d.near_far_fallbacks = after.near_far_fallbacks - before.near_far_fallbacks;
  d.dma_injected = after.dma_injected - before.dma_injected;
  d.dma_retries = after.dma_retries - before.dma_retries;
  d.far_stalls = after.far_stalls - before.far_stalls;
  d.backoff_s = after.backoff_s - before.backoff_s;
  d.stall_s = after.stall_s - before.stall_s;
  return d;
}

struct MachineStats {
  PhaseStats total;                // sums over all closed phases
  std::vector<PhaseStats> phases;  // in begin_phase order

  // Line-granularity access counts (64-byte lines unless configured
  // otherwise) — the unit Table I reports. A trailing partial line still
  // costs an access, so the byte total rounds up.
  std::uint64_t far_accesses(std::uint64_t line_bytes) const {
    return ceil_div(total.far_bytes(), line_bytes);
  }
  std::uint64_t near_accesses(std::uint64_t line_bytes) const {
    return ceil_div(total.near_bytes(), line_bytes);
  }

  // Directional line-granularity accesses — what the ω model weighs. Each
  // direction rounds up independently, so far_reads + far_writes may exceed
  // far_accesses by at most one line; the byte totals conserve exactly.
  std::uint64_t far_reads(std::uint64_t line_bytes) const {
    return ceil_div(total.far_read_bytes, line_bytes);
  }
  std::uint64_t far_writes(std::uint64_t line_bytes) const {
    return ceil_div(total.far_write_bytes, line_bytes);
  }
  std::uint64_t near_reads(std::uint64_t line_bytes) const {
    return ceil_div(total.near_read_bytes, line_bytes);
  }
  std::uint64_t near_writes(std::uint64_t line_bytes) const {
    return ceil_div(total.near_write_bytes, line_bytes);
  }
};

}  // namespace tlm
