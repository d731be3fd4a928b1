// Discrete-event simulation core — the role SST's kernel plays in the paper.
//
// Components schedule closures at absolute simulated times (picosecond
// ticks); the simulator executes them in (time, insertion) order. SST's
// component/link architecture is mirrored one level up: components hold
// typed pointers to their neighbours and use `schedule` to model link and
// service latencies.
//
// Kernel contract (the hot path allocates nothing per event):
//   * Events run in the strict total order (when, seq), seq being the
//     schedule() call count — so a run is a pure function of its inputs.
//   * A handler is an EventFn: a move-only callable whose capture lives
//     inline (at most kInlineBytes, enforced at compile time).
//   * Queued handlers sit in a slab recycled through a free list; the heap
//     orders 24-byte {when, seq, slot} keys. run() moves each handler out
//     of its slot before invoking it, since the handler may schedule new
//     events and grow (reallocate) the slab.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace tlm::sim {

// Move-only `void()` callable with 64 B of inline capture storage. Captures
// that are trivially copyable (every simulator component's: `this`, a
// MemReq, pointers) relocate by memcpy and need no destructor call.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  EventFn() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                     std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // implicit: lambdas convert at schedule() calls
    static_assert(sizeof(D) <= kInlineBytes,
                  "event capture exceeds EventFn's 64 B inline storage");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "event capture is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event capture must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
    if constexpr (!std::is_trivially_copyable_v<D>) manage_ = &manage<D>;
  }

  EventFn(EventFn&& o) noexcept { take(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }
  void operator()() { invoke_(buf_); }

 private:
  // dst == nullptr destroys src; otherwise move-constructs dst from src and
  // destroys src.
  using Manage = void (*)(void* dst, void* src);

  template <class D>
  static void manage(void* dst, void* src) {
    D* s = static_cast<D*>(src);
    if (dst) ::new (dst) D(std::move(*s));
    s->~D();
  }

  void take(EventFn& o) noexcept {
    if (!o.invoke_) return;
    if (o.manage_)
      o.manage_(buf_, o.buf_);
    else
      std::memcpy(buf_, o.buf_, kInlineBytes);
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }
  void reset() noexcept {
    if (manage_) manage_(nullptr, buf_);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  Manage manage_ = nullptr;
};

class Simulator {
 public:
  using Handler = EventFn;

  SimTime now() const { return now_; }

  // Schedules `fn` to run at now() + delay.
  void schedule(SimTime delay, Handler fn) {
    push(now_ + delay, std::move(fn));
  }
  void schedule_at(SimTime when, Handler fn) {
    TLM_REQUIRE(when >= now_, "cannot schedule into the past");
    push(when, std::move(fn));
  }

  // Runs until the event queue drains (or `max_events` fire — a runaway
  // guard for tests). Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = ~0ULL) {
    std::uint64_t executed = 0;
    while (!heap_.empty() && executed < max_events) {
      const Key top = pop_min();
      TLM_CHECK(top.when >= now_, "event queue went backwards");
      now_ = top.when;
      Handler fn = std::move(slab_[top.slot]);
      free_.push_back(top.slot);
      fn();
      ++executed;
    }
    return executed;
  }

  bool idle() const { return heap_.empty(); }
  std::uint64_t pending() const { return heap_.size(); }

 private:
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    bool before(const Key& o) const {
      return when != o.when ? when < o.when : seq < o.seq;
    }
  };
  static_assert(sizeof(Key) == 24, "heap keys are 24 bytes");

  void push(SimTime when, Handler fn) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(fn));
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = std::move(fn);
    }
    // Sift up.
    const Key k{when, seq_++, slot};
    std::size_t i = heap_.size();
    heap_.push_back(k);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!k.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  Key pop_min() {
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    // Sift `last` down from the root.
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
      if (!heap_[child].before(last)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = last;
    return top;
  }

  std::vector<Key> heap_;
  std::vector<Handler> slab_;
  std::vector<std::uint32_t> free_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
};

// Memory transaction. Addresses are line-aligned by the issuing core; only
// reads (and demand stores) receive responses, writebacks are posted.
struct MemReq {
  std::uint64_t addr = 0;
  std::uint32_t bytes = 64;
  bool is_write = false;
  bool posted = false;  // fire-and-forget (cache writebacks)
  std::uint64_t tag = 0;       // requester-local id
  class Requester* origin = nullptr;
};

class Requester {
 public:
  virtual ~Requester() = default;
  virtual void on_response(const MemReq& req) = 0;
};

// Anything that accepts requests flowing away from the cores.
class MemPort {
 public:
  virtual ~MemPort() = default;
  virtual void request(const MemReq& req) = 0;
};

}  // namespace tlm::sim
