// Deterministic discrete-event simulation engine.
//
// One Simulator instance is one experiment trial. Events execute in
// (time, insertion-id) order, so two runs with identical inputs produce
// identical traces — the property every reproduction experiment in this repo
// rests on. Trials are independent; parallelism happens across Simulators
// (see src/parallel), never inside one.
//
// Engine layout (the repo's hottest path — see ARCHITECTURE.md):
//  * a 4-ary min-heap over 24-byte POD entries (when, seq, slot). The wide
//    fan-out halves tree depth versus a binary heap and keeps sift paths
//    inside one or two cache lines of entries;
//  * a slot table holding the callables (sim::InlineFn, no allocation for
//    small captures), recycled through a free list. Each slot records its
//    entry's heap position, which every sift keeps current;
//  * generation counters per slot, so a stale EventId is rejected in O(1).
//    Cancellation is eager and O(log n): the heap's last entry fills the
//    cancelled one's position and sifts up or down. The heap therefore holds
//    exactly the pending events. Every heartbeat re-arms an election timer
//    and every reply cancels a client timeout, so in the kv workloads dead
//    entries outnumbered live ones 30-50 to 1 when cancellation was lazy.
//    No hash sets anywhere.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/inline_fn.hpp"

namespace dyna::sim {

using EventFn = InlineFn;

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Encodes (slot << 32 | generation); never 0 for a live event.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `when` (clamped to now if in the past).
  EventId schedule_at(TimePoint when, EventFn fn) {
    DYNA_EXPECTS(static_cast<bool>(fn));
    if (when < now_) when = now_;
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    // A fresh generation invalidates every outstanding id for this slot.
    // (The LIFO free list can concentrate reuse on one slot — a lone
    // re-armed timer bumps the same generation every arm — so the wrap
    // bound is 2^32 reuses of a *single* slot. Whole trials run ~1e8
    // events, two orders of magnitude under it; revisit if trials grow.)
    ++s.gen;
    s.fn = std::move(fn);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, HeapEntry{when, ++seq_, slot});
    return make_id(slot, s.gen);
  }

  /// Schedule `fn` after `delay` (negative delays clamp to "immediately").
  EventId schedule_after(Duration delay, EventFn fn) {
    return schedule_at(now_ + (delay.count() > 0 ? delay : Duration{0}), std::move(fn));
  }

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled before. O(log n): its heap entry is removed at once.
  bool cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id >> 32);
    const auto gen = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (s.gen != gen || s.pos == kNotQueued) return false;
    heap_erase(s.pos);
    release(s, slot);
    return true;
  }

  /// Execute the next pending event, advancing the clock. Returns false if
  /// the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_.front();
    heap_erase(0);
    DYNA_ASSERT(top.when >= now_);
    now_ = top.when;
    ++executed_;
    // Move the callable out before invoking: the callback may schedule new
    // events, which can grow slots_ and recycle this very slot.
    Slot& s = slots_[top.slot];
    InlineFn fn = std::move(s.fn);
    release(s, top.slot);
    fn();
    return true;
  }

  /// Run events until none remain at or before `horizon`, then advance the
  /// clock to `horizon` exactly (so back-to-back run_for calls tile time).
  void run_until(TimePoint horizon) {
    DYNA_EXPECTS(horizon >= now_);
    while (!heap_.empty() && heap_.front().when <= horizon) {
      step();
    }
    now_ = horizon;
  }

  void run_for(Duration d) { run_until(now_ + d); }

  /// Drain the whole queue (tests / teardown). `max_events` guards against
  /// self-perpetuating schedules.
  std::size_t run_all(std::size_t max_events = 100'000'000) {
    std::size_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Return to the freshly-constructed state while keeping every container's
  /// capacity (heap storage, slot table, free list). A reset simulator is
  /// observationally identical to a new one — clock at the epoch, no pending
  /// events, sequence and generation counters rewound — so trial k+1 of a
  /// sweep can reuse trial k's warmed allocations. The reset-exactness suite
  /// in tests/test_trial_reuse.cpp holds this to "bit-identical traces".
  void reset() noexcept {
    heap_.clear();
    slots_.clear();  // destroys the InlineFn callables, keeps the capacity
    free_slots_.clear();
    now_ = kSimEpoch;
    seq_ = 0;
    executed_ = 0;
  }

 private:
  /// 24-byte POD heap entry. `seq` is the global insertion counter and breaks
  /// same-time ties FIFO; `slot` locates the callable.
  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  struct Slot {
    std::uint32_t gen = 0;
    std::uint32_t pos = kNotQueued;  ///< heap position while pending
    InlineFn fn;
  };

  static constexpr std::size_t kArity = 4;

  [[nodiscard]] static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  [[nodiscard]] static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;  // FIFO among same-time events
  }

  /// Disarm a slot and return it to the free list (fired or cancelled).
  void release(Slot& s, std::uint32_t slot) {
    s.pos = kNotQueued;
    s.fn.reset();
    free_slots_.push_back(slot);
  }

  /// Store `e` at heap position `i` and record the position in its slot.
  void place(std::size_t i, const HeapEntry& e) noexcept {
    heap_[i] = e;
    slots_[e.slot].pos = static_cast<std::uint32_t>(i);
  }

  /// Move `e`, destined for position `i`, towards the root.
  void sift_up(std::size_t i, HeapEntry e) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  /// Move `e`, destined for position `i`, towards the leaves.
  void sift_down(std::size_t i, HeapEntry e) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], e)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, e);
  }

  /// Remove the entry at position `i`: the last entry fills the hole and
  /// sifts whichever way restores the heap order.
  void heap_erase(std::size_t i) {
    DYNA_ASSERT(i < heap_.size());
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    if (i > 0 && earlier(last, heap_[(i - 1) / kArity])) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

  TimePoint now_ = kSimEpoch;
  std::uint64_t seq_ = 0;  ///< global insertion counter (FIFO tie-break)
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t executed_ = 0;
};

/// One-shot restartable timer: the idiom Raft nodes use for election and
/// heartbeat deadlines. Re-arming cancels the previous schedule; the callback
/// fires at most once per arm().
class Timer {
 public:
  Timer(Simulator& simulator, EventFn on_fire)
      : sim_(&simulator), on_fire_(std::move(on_fire)) {
    DYNA_EXPECTS(static_cast<bool>(on_fire_));
  }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { cancel(); }

  void arm_at(TimePoint when) {
    cancel();
    deadline_ = when;
    id_ = sim_->schedule_at(when, [this] {
      id_ = kInvalidEvent;
      deadline_ = kNever;
      on_fire_();
    });
  }

  void arm(Duration delay) { arm_at(sim_->now() + delay); }

  void cancel() {
    if (id_ != kInvalidEvent) {
      sim_->cancel(id_);
      id_ = kInvalidEvent;
      deadline_ = kNever;
    }
  }

  /// Drop the handle without touching the simulator. For trial reuse only:
  /// after Simulator::reset() the stored id no longer refers to this timer's
  /// event, and cancelling it could hit an unrelated fresh event whose
  /// (slot, generation) happens to collide.
  void forget() noexcept {
    id_ = kInvalidEvent;
    deadline_ = kNever;
  }

  [[nodiscard]] bool armed() const noexcept { return id_ != kInvalidEvent; }
  [[nodiscard]] TimePoint deadline() const noexcept { return deadline_; }

 private:
  Simulator* sim_;
  EventFn on_fire_;
  EventId id_ = kInvalidEvent;
  TimePoint deadline_ = kNever;
};

}  // namespace dyna::sim
