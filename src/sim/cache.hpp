// Set-associative write-back cache with LRU replacement and MSHR merging —
// the L1 and shared-L2 components of the Fig. 5/7 memory subsystem.
//
// Demand stores that cover a full line install without a fill (streaming
// write-combining), which both matches the full-line bursts our trace cores
// issue and keeps the simulator's DRAM read counts consistent with the
// analytic counting backend. Victim writebacks are posted downstream.
//
// Geometry must be a power of two in both line size and set count (every
// configuration in the repo is): set and tag extraction are a shift and a
// mask, over one flat [set x ways] array.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace tlm::sim {

struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 16 * 1024;
  std::uint32_t ways = 2;
  std::uint32_t line_bytes = 64;
  SimTime latency = 2 * kNanosecond;
};

struct CacheStats {
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t read_hits = 0, write_hits = 0;
  std::uint64_t fills = 0, writebacks = 0;
  std::uint64_t accesses() const { return reads + writes; }
  std::uint64_t hits() const { return read_hits + write_hits; }
  double hit_rate() const {
    const auto a = accesses();
    return a ? static_cast<double>(hits()) / static_cast<double>(a) : 0.0;
  }
};

class Cache final : public MemPort, public Requester {
 public:
  Cache(Simulator& sim, CacheConfig cfg, MemPort* downstream);

  // Upstream interface: cores or upper caches send line-aligned requests.
  void request(const MemReq& req) override;
  // Fill returning from downstream.
  void on_response(const MemReq& req) override;

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  // One outstanding fill and the requests merged into it, in arrival order.
  struct Mshr {
    std::uint64_t line = 0;
    std::vector<MemReq> waiters;
  };

  void lookup(const MemReq& req);
  Way* find(std::uint64_t addr);
  // Installs `addr`, evicting (and writing back) a victim if needed.
  Way& install(std::uint64_t addr);
  std::uint64_t set_index(std::uint64_t addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  Way* set_of(std::uint64_t addr) {
    return &ways_[set_index(addr) * cfg_.ways];
  }
  std::uint64_t tag_of(std::uint64_t addr) const { return addr >> tag_shift_; }
  std::uint64_t line_addr(std::uint64_t addr) const {
    return addr & ~line_mask_;
  }

  Simulator& sim_;
  CacheConfig cfg_;
  MemPort* downstream_;
  unsigned line_shift_ = 0;      // log2(line_bytes)
  unsigned tag_shift_ = 0;       // log2(line_bytes * sets)
  std::uint64_t line_mask_ = 0;  // line_bytes - 1
  std::uint64_t set_mask_ = 0;   // sets - 1
  std::vector<Way> ways_;        // [set * ways + way]
  std::uint64_t lru_clock_ = 0;
  // Outstanding fills, searched linearly. The table stays small: each core
  // keeps at most CoreConfig::max_outstanding requests in flight.
  std::vector<Mshr> mshr_;
  CacheStats stats_;
};

}  // namespace tlm::sim
