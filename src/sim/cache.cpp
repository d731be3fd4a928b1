#include "sim/cache.hpp"

#include <algorithm>

#include "common/math.hpp"

namespace tlm::sim {

Cache::Cache(Simulator& sim, CacheConfig cfg, MemPort* downstream)
    : sim_(sim), cfg_(std::move(cfg)), downstream_(downstream) {
  TLM_REQUIRE(downstream_ != nullptr, "cache needs a downstream port");
  TLM_REQUIRE(cfg_.line_bytes > 0 && cfg_.ways > 0, "bad cache geometry");
  const std::uint64_t sets =
      cfg_.size_bytes / (static_cast<std::uint64_t>(cfg_.line_bytes) *
                         cfg_.ways);
  TLM_REQUIRE(sets >= 1, "cache smaller than one set");
  TLM_REQUIRE(is_pow2(cfg_.line_bytes) && is_pow2(sets),
              "cache line size and set count must be powers of two");
  line_shift_ = ilog2(cfg_.line_bytes);
  tag_shift_ = line_shift_ + ilog2(sets);
  line_mask_ = cfg_.line_bytes - 1;
  set_mask_ = sets - 1;
  ways_.assign(sets * cfg_.ways, Way{});
}

void Cache::request(const MemReq& req) {
  sim_.schedule(cfg_.latency, [this, req] { lookup(req); });
}

Cache::Way* Cache::find(std::uint64_t addr) {
  Way* set = set_of(addr);
  const std::uint64_t tag = tag_of(addr);
  for (std::uint32_t i = 0; i < cfg_.ways; ++i)
    if (set[i].valid && set[i].tag == tag) return &set[i];
  return nullptr;
}

Cache::Way& Cache::install(std::uint64_t addr) {
  Way* set = set_of(addr);
  Way* victim = &set[0];
  for (std::uint32_t i = 0; i < cfg_.ways; ++i) {
    Way& w = set[i];
    if (!w.valid) {
      victim = &w;
      break;
    }
    if (w.lru < victim->lru) victim = &w;
  }
  if (victim->valid && victim->dirty) {
    ++stats_.writebacks;
    MemReq wb;
    wb.addr = (victim->tag << tag_shift_) | (set_index(addr) << line_shift_);
    wb.bytes = cfg_.line_bytes;
    wb.is_write = true;
    wb.posted = true;
    downstream_->request(wb);
  }
  victim->tag = tag_of(addr);
  victim->valid = true;
  victim->dirty = false;
  victim->lru = ++lru_clock_;
  return *victim;
}

void Cache::lookup(const MemReq& req) {
  Way* way = find(req.addr);
  if (req.is_write) {
    ++stats_.writes;
    if (way) {
      ++stats_.write_hits;
      way->dirty = true;
      way->lru = ++lru_clock_;
    } else {
      // Full-line store: install without fetching (write-combining). Trace
      // cores only emit line-granular stores, so no partial-line merge is
      // required.
      Way& w = install(req.addr);
      w.dirty = true;
    }
    if (!req.posted && req.origin) req.origin->on_response(req);
    return;
  }

  ++stats_.reads;
  if (way) {
    ++stats_.read_hits;
    way->lru = ++lru_clock_;
    if (req.origin) req.origin->on_response(req);
    return;
  }
  // Read miss: merge into an existing MSHR entry or start a fill.
  const std::uint64_t line = line_addr(req.addr);
  for (Mshr& m : mshr_)
    if (m.line == line) {
      m.waiters.push_back(req);
      return;
    }
  mshr_.push_back(Mshr{line, {req}});
  ++stats_.fills;
  MemReq fill;
  fill.addr = line;
  fill.bytes = cfg_.line_bytes;
  fill.is_write = false;
  fill.tag = line;
  fill.origin = this;
  downstream_->request(fill);
}

void Cache::on_response(const MemReq& req) {
  const std::uint64_t line = line_addr(req.addr);
  auto it = std::find_if(mshr_.begin(), mshr_.end(),
                         [line](const Mshr& m) { return m.line == line; });
  TLM_CHECK(it != mshr_.end(), "fill response without an MSHR entry");
  install(line);
  std::vector<MemReq> waiters = std::move(it->waiters);
  *it = std::move(mshr_.back());  // swap-remove: table order is irrelevant
  mshr_.pop_back();
  for (const MemReq& w : waiters)
    if (w.origin) w.origin->on_response(w);
}

}  // namespace tlm::sim
