// Charged k-way merging: the memory behaviour of every merge in this
// repository flows through these two functions.
//
// merge_runs_charged consumes runs through block-granular refills (charging
// stream reads in actual consumption order) and flushes output in blocks, so
// a trace replayed on the simulator interleaves reads, compute, and writes
// the way a real buffered external merge would.
//
// parallel_multiway_merge splits one big merge across all machine threads by
// merge-path / k-way exact partitioning (multisequence selection on the
// cross-run rank, after Green/Odeh/Birk's Merge Path): part j starts at
// global rank ⌊j·total/p⌋ in every run, so each thread's slice is within one
// element of total/p regardless of the key distribution — including
// all-equal and heavily skewed keys, where value-based splitters collapse
// onto a single thread.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/loser_tree.hpp"
#include "common/units.hpp"
#include "scratchpad/machine.hpp"
#include "sort/runs.hpp"

namespace tlm::sort {

struct MergeOptions {
  // Refill/flush granularity of the buffered cursors. 4 KiB amortizes the
  // per-burst access latency while letting 2·fan buffers fit in the cache
  // (fan-in derives from cache_bytes / (2·refill_bytes)).
  std::uint64_t refill_bytes = 4 * KiB;
  // Modeled comparisons per emitted element on top of log2(k).
  double cost_per_element = 1.0;
  // Minimum elements per parallel merge slice: splitting a merge across
  // more threads than total/min_part_elems just burns splitter probes and
  // produces sub-refill slices.
  std::uint64_t min_part_elems = 1024;
};

// Sequential k-way merge of `runs` into `out` (which must have room for the
// total size), charging `thread` for all traffic and compute.
template <typename T, typename Cmp = std::less<T>>
void merge_runs_charged(Machine& m, std::size_t thread,
                        const std::vector<Run<T>>& runs, T* out, Cmp cmp = {},
                        const MergeOptions& opt = {}) {
  const std::uint64_t total = total_size(runs);
  if (total == 0) return;

  using LT = LoserTree<T, Cmp>;
  std::vector<typename LT::Run> lt_runs;
  lt_runs.reserve(runs.size());
  for (const auto& r : runs) lt_runs.push_back({r.begin, r.end});

  const std::uint64_t refill_elems =
      std::max<std::uint64_t>(1, opt.refill_bytes / sizeof(T));
  std::vector<const T*> watermark(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) watermark[i] = runs[i].begin;

  LT tree(std::move(lt_runs), cmp);
  const double per_elem =
      std::log2(static_cast<double>(std::max<std::size_t>(2, runs.size()))) +
      opt.cost_per_element;

  T* o = out;
  T* flush_from = out;
  while (!tree.done()) {
    const std::size_t r = tree.top_run();
    // Charge the refill covering the element we are about to consume.
    if (tree.cursor(r) >= watermark[r]) {
      const std::uint64_t left =
          static_cast<std::uint64_t>(runs[r].end - watermark[r]);
      const std::uint64_t take = std::min(refill_elems, left);
      m.stream_read(thread, watermark[r], take * sizeof(T));
      watermark[r] += take;
    }
    *o++ = tree.pop();
    if (static_cast<std::uint64_t>(o - flush_from) >= refill_elems) {
      m.stream_write(thread, flush_from,
                     static_cast<std::uint64_t>(o - flush_from) * sizeof(T));
      m.compute(thread, static_cast<double>(o - flush_from) * per_elem);
      flush_from = o;
    }
  }
  if (o != flush_from) {
    m.stream_write(thread, flush_from,
                   static_cast<std::uint64_t>(o - flush_from) * sizeof(T));
    m.compute(thread, static_cast<double>(o - flush_from) * per_elem);
  }
}

// A rank-split decomposition of one k-way merge into `parts` independent
// slice merges with known output offsets.
template <typename T>
struct MergePartition {
  std::vector<std::vector<Run<T>>> slice;  // per part, the non-empty slices
  std::vector<std::uint64_t> offset;       // per part, output offset
};

namespace detail {

// Exact multisequence selection: cut positions cut[i] with
// Σ (cut[i] − runs[i].begin) == target such that every element left of a cut
// sorts no later than every element right of one. Ties on the splitter value
// are taken in run-index order, matching the loser tree's stable tie-break,
// so the partition boundary reproduces exactly what a sequential stable
// merge would emit first.
//
// Binary search on the candidate value: probe the midpoint of the largest
// active range, count its global rank interval [L(v), U(v)) with charged
// lower/upper bounds, and shrink every run's range to the side the target
// rank lies on. The probed run's range at least halves per iteration and
// occurrences of the true splitter are never excluded, so the search always
// lands on it.
template <typename T, typename Cmp>
std::vector<const T*> merge_path_cut(Machine& m, std::size_t thread,
                                     const std::vector<Run<T>>& runs,
                                     std::uint64_t target, Cmp cmp) {
  const std::size_t k = runs.size();
  const std::uint64_t total = total_size(runs);
  std::vector<const T*> cut(k);
  if (target == 0) {
    for (std::size_t i = 0; i < k; ++i) cut[i] = runs[i].begin;
    return cut;
  }
  if (target >= total) {
    for (std::size_t i = 0; i < k; ++i) cut[i] = runs[i].end;
    return cut;
  }

  // Active index ranges [a_i, b_i): the final cut of run i lies within.
  std::vector<std::uint64_t> a(k, 0), b(k);
  for (std::size_t i = 0; i < k; ++i) b[i] = runs[i].size();
  std::vector<const T*> lb(k), ub(k);
  const std::uint64_t line = m.config().block_bytes;
  double probe_rounds = 0;

  for (;;) {
    // Probe the midpoint of the largest active range.
    std::size_t r = k;
    std::uint64_t widest = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (b[i] - a[i] > widest) {
        widest = b[i] - a[i];
        r = i;
      }
    }
    TLM_CHECK(r < k, "merge-path selection ran out of candidates");
    const T* probe = runs[r].begin + a[r] + (b[r] - a[r]) / 2;
    m.stream_read(thread, probe, std::min<std::uint64_t>(line, sizeof(T)));
    const T& v = *probe;

    std::uint64_t lo = 0, up = 0;
    for (std::size_t i = 0; i < k; ++i) {
      lb[i] = charged_lower_bound(m, thread, runs[i].begin, runs[i].end, v,
                                  cmp);
      ub[i] = charged_upper_bound(m, thread, runs[i].begin, runs[i].end, v,
                                  cmp);
      lo += static_cast<std::uint64_t>(lb[i] - runs[i].begin);
      up += static_cast<std::uint64_t>(ub[i] - runs[i].begin);
    }
    probe_rounds += 1;

    if (lo < target && target <= up) break;  // v is the splitter value
    if (up < target) {
      // v sorts entirely before the cut: everything not greater than v does
      // too, so the cuts lie at or beyond each run's upper bound.
      for (std::size_t i = 0; i < k; ++i)
        a[i] = std::max(a[i],
                        static_cast<std::uint64_t>(ub[i] - runs[i].begin));
    } else {
      // lo >= target: v sorts entirely after the cut.
      for (std::size_t i = 0; i < k; ++i)
        b[i] = std::min(b[i],
                        static_cast<std::uint64_t>(lb[i] - runs[i].begin));
    }
  }

  // lb/ub hold the bounds of the splitter value: take all elements strictly
  // below it, then distribute the remaining rank among its duplicates in
  // run-index order (stability).
  std::uint64_t rem = target;
  for (std::size_t i = 0; i < k; ++i)
    rem -= static_cast<std::uint64_t>(lb[i] - runs[i].begin);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t dup = static_cast<std::uint64_t>(ub[i] - lb[i]);
    const std::uint64_t take = std::min(rem, dup);
    cut[i] = lb[i] + take;
    rem -= take;
  }
  TLM_CHECK(rem == 0, "merge-path tie distribution lost rank");
  // The rank counting itself: ~2k·lg(n/k) comparisons per probe round.
  m.compute(thread, probe_rounds * 2.0 * static_cast<double>(k) *
                        std::log2(static_cast<double>(total) + 2.0));
  return cut;
}

}  // namespace detail

// Computes the exact k-way partition on the calling thread (rank probes
// charged to `thread`). `parts` must be >= 1. Part j covers global ranks
// [⌊j·total/parts⌋, ⌊(j+1)·total/parts⌋), so every part holds at most
// ⌈total/parts⌉ elements whatever the key distribution.
template <typename T, typename Cmp = std::less<T>>
MergePartition<T> partition_merge(Machine& m, std::size_t thread,
                                  const std::vector<Run<T>>& runs,
                                  std::size_t parts, Cmp cmp = {}) {
  const std::uint64_t total = total_size(runs);
  MergePartition<T> out;
  out.slice.resize(parts);
  out.offset.assign(parts, 0);
  if (parts == 1) {
    for (const auto& r : runs)
      if (!r.empty()) out.slice[0].push_back(r);
    m.note_partition(thread, 1, total, total);
    return out;
  }

  // Per-part cut points: cuts[j][i] is where part j begins inside run i.
  std::vector<std::vector<const T*>> cuts(parts + 1);
  cuts[0].reserve(runs.size());
  for (const auto& r : runs) cuts[0].push_back(r.begin);
  cuts[parts].reserve(runs.size());
  for (const auto& r : runs) cuts[parts].push_back(r.end);
  for (std::size_t j = 1; j < parts; ++j)
    cuts[j] = detail::merge_path_cut(
        m, thread, runs, total * static_cast<std::uint64_t>(j) / parts, cmp);

  // Exact ranks are monotone in j and the tie distribution is deterministic,
  // so cut points are monotone by construction; enforce anyway for safety
  // under pathological comparators.
  for (std::size_t j = 1; j <= parts; ++j)
    for (std::size_t i = 0; i < runs.size(); ++i)
      if (cuts[j][i] < cuts[j - 1][i]) cuts[j][i] = cuts[j - 1][i];

  std::uint64_t acc = 0;
  std::uint64_t max_slice = 0;
  for (std::size_t j = 0; j < parts; ++j) {
    out.offset[j] = acc;
    std::uint64_t part_elems = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (cuts[j + 1][i] > cuts[j][i])
        out.slice[j].push_back(Run<T>{cuts[j][i], cuts[j + 1][i]});
      part_elems += static_cast<std::uint64_t>(cuts[j + 1][i] - cuts[j][i]);
    }
    acc += part_elems;
    max_slice = std::max(max_slice, part_elems);
  }
  TLM_CHECK(acc == total, "split lost elements");
  m.note_partition(thread, parts, max_slice, total);
  return out;
}

// Merges `runs` into `out` using every thread of the machine. Must be called
// from the orchestrating thread (it runs an SPMD section internally).
//
// `per_worker`, when given, runs on every worker at the start of the SPMD
// section, before the worker merges its slice — NMsort's Phase 2 uses it to
// post the DMA gather of the next batch so the transfer overlaps with the
// current batch's merge, with the SPMD join barrier as the completion fence.
// A non-empty hook forces the SPMD section even for merges too small to
// split, so the fence always exists.
template <typename T, typename Cmp = std::less<T>>
void parallel_multiway_merge(
    Machine& m, const std::vector<Run<T>>& runs, std::span<T> out, Cmp cmp = {},
    const MergeOptions& opt = {},
    const std::function<void(std::size_t)>& per_worker = {}) {
  const std::uint64_t total = total_size(runs);
  TLM_REQUIRE(out.size() == total, "output size must equal total run size");
  if (total == 0) {
    if (per_worker) m.run_spmd(per_worker);
    return;
  }

  const std::size_t parts = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      total / std::max<std::uint64_t>(1, opt.min_part_elems), 1,
      m.threads()));
  if (parts == 1 && !per_worker) {
    merge_runs_charged(m, 0, runs, out.data(), cmp, opt);
    return;
  }
  // The orchestrator computes the partition; under the exact merge-path
  // split each part's slice is within one element of total/parts.
  const MergePartition<T> part = partition_merge(m, 0, runs, parts, cmp);
  m.run_spmd([&](std::size_t w) {
    if (per_worker) per_worker(w);
    if (w >= parts || part.slice[w].empty()) return;
    merge_runs_charged(m, w, part.slice[w], out.data() + part.offset[w], cmp,
                       opt);
  });
}

}  // namespace tlm::sort
