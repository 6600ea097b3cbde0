// Cancellation semantics of the slot/generation event engine.
//
// The engine recycles slots through a free list and validates EventIds by
// generation counter, so the dangerous edges are exactly the ones this suite
// pins down: a stale id aimed at a recycled slot, cancel after fire, timer
// re-arm storms, and — the property everything else rests on — firing order
// byte-identical to the seed engine (priority_queue + hash sets), which a
// reference implementation below replays side by side.
#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace dyna::sim {
namespace {

using namespace std::chrono_literals;

TEST(Cancellation, StaleIdAgainstRecycledSlotIsRejected) {
  Simulator sim;
  bool first = false;
  bool second = false;
  const EventId a = sim.schedule_after(10ms, [&] { first = true; });
  ASSERT_TRUE(sim.cancel(a));
  // The next schedule recycles a's slot under a fresh generation.
  const EventId b = sim.schedule_after(10ms, [&] { second = true; });
  EXPECT_NE(a, b);
  // The stale id must neither report success nor touch the new event.
  EXPECT_FALSE(sim.cancel(a));
  sim.run_all();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Cancellation, StaleIdAfterFireAgainstRecycledSlot) {
  Simulator sim;
  const EventId a = sim.schedule_after(1ms, [] {});
  sim.run_all();
  EXPECT_FALSE(sim.cancel(a));  // already fired
  int fired = 0;
  const EventId b = sim.schedule_after(1ms, [&] { ++fired; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(sim.cancel(a));  // still stale, must not kill b
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Cancellation, GenerationsStayUniqueAcrossHeavyReuse) {
  // Churn one logical event through thousands of schedule/cancel cycles; all
  // ids must be distinct and only the last survivor may fire.
  Simulator sim;
  std::unordered_set<EventId> ids;
  int fired = 0;
  EventId last = kInvalidEvent;
  for (int i = 0; i < 5000; ++i) {
    if (last != kInvalidEvent) {
      EXPECT_TRUE(sim.cancel(last));
    }
    last = sim.schedule_after(1ms, [&] { ++fired; });
    EXPECT_NE(last, kInvalidEvent);
    EXPECT_TRUE(ids.insert(last).second) << "EventId reused at iteration " << i;
  }
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Cancellation, DoubleCancelAndCancelAfterFire) {
  Simulator sim;
  const EventId a = sim.schedule_after(5ms, [] {});
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_FALSE(sim.cancel(a));
  const EventId b = sim.schedule_after(5ms, [] {});
  sim.run_all();
  EXPECT_FALSE(sim.cancel(b));
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
}

TEST(Cancellation, TimerRearmStorm) {
  // The Raft idiom under stress: every heartbeat re-arms the election timer,
  // so a long trial drives one Timer through thousands of cancel+schedule
  // cycles. Only the final deadline may fire, and the engine must not
  // accumulate live events or slots.
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  for (int i = 0; i < 10000; ++i) {
    t.arm(Duration(std::chrono::milliseconds(10 + (i % 7))));
  }
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(t.armed());
  sim.run_for(1s);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(sim.pending(), 0u);

  // Re-arming from the fired state keeps working (fresh generation again).
  t.arm(5ms);
  sim.run_for(10ms);
  EXPECT_EQ(fired, 2);
}

TEST(Cancellation, RearmInsideCallbackReusesCleanly) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  Timer storm(sim, [&] {
    // Mid-event re-arm of another timer: exercises slot recycling while the
    // engine is inside step().
    if (fired < 3) {
      t.arm(1ms);
      storm.arm(2ms);
    }
  });
  storm.arm(2ms);
  sim.run_for(1s);
  EXPECT_EQ(fired, 3);
}

// ---- Reference engine: the seed implementation, kept verbatim ---------------

/// The pre-refactor engine (priority_queue + live/cancelled hash sets). The
/// production engine must match its observable behaviour event for event.
class ReferenceSimulator {
 public:
  using Fn = std::function<void()>;

  std::uint64_t schedule_at(TimePoint when, Fn fn) {
    if (when < now_) when = now_;
    const std::uint64_t id = ++next_id_;
    queue_.push(Entry{when, id, std::move(fn)});
    live_.insert(id);
    return id;
  }

  std::uint64_t schedule_after(Duration delay, Fn fn) {
    return schedule_at(now_ + (delay.count() > 0 ? delay : Duration{0}), std::move(fn));
  }

  bool cancel(std::uint64_t id) {
    if (live_.erase(id) == 0) return false;
    cancelled_.insert(id);
    return true;
  }

  bool step() {
    while (!queue_.empty()) {
      Entry top = std::move(const_cast<Entry&>(queue_.top()));
      queue_.pop();
      if (cancelled_.erase(top.id) > 0) continue;
      live_.erase(top.id);
      now_ = top.when;
      top.fn();
      return true;
    }
    return false;
  }

  [[nodiscard]] TimePoint now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_.size(); }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t id;
    Fn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  TimePoint now_ = kSimEpoch;
  std::uint64_t next_id_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<std::uint64_t> live_;
  std::unordered_set<std::uint64_t> cancelled_;
};

/// One (fire-time, tag) pair per executed event: the full observable trace.
struct FireRecord {
  std::int64_t when_ns;
  int tag;
  bool operator==(const FireRecord&) const = default;
};

/// Which pending event a scripted cancel aims at.
enum class CancelTarget { AnyId, Head, Newest, Latest, Interior, kCount };

/// Drive `engine` through the randomized schedule/cancel/step script that
/// `rng` encodes, recording every fire, cancel outcome and pending() count in
/// `trace`. The script keeps its own ledger of pending events, so cancels can
/// aim at the head of the queue (earliest deadline), the newest event (the
/// heap's last entry right after its push), the latest deadline (a leaf) or
/// an interior event, and pending() is checked against the ledger after every
/// operation.
template <class Engine>
void drive_script(Engine& engine, Rng& rng, int rounds, std::vector<FireRecord>& trace) {
  using Id = decltype(engine.schedule_after(Duration{}, [] {}));
  std::vector<Id> ids;               // per scheduled event, in schedule order
  std::vector<std::int64_t> due_ns;  // its deadline
  std::vector<bool> pending;         // scheduled, and neither fired nor cancelled
  std::size_t live = 0;

  const auto now_ns = [&engine] { return engine.now().time_since_epoch().count(); };
  const auto check_pending = [&] {
    EXPECT_EQ(engine.pending(), live);
    trace.push_back(FireRecord{static_cast<std::int64_t>(engine.pending()), -1'000'000});
  };
  const auto schedule = [&](Duration delay, int tag, auto&& follow_up) {
    const std::size_t n = ids.size();
    due_ns.push_back(now_ns() + std::max<std::int64_t>(delay.count(), 0));
    pending.push_back(true);
    ++live;
    ids.push_back(engine.schedule_after(delay, [&, n, tag, follow_up] {
      pending[n] = false;
      --live;
      trace.push_back(FireRecord{now_ns(), tag});
      follow_up();
    }));
    check_pending();
  };
  // Pick the pending event that minimises `key` (ties: schedule order).
  const auto pick_pending = [&](auto&& key) -> std::optional<std::size_t> {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (pending[i] && (!best || key(i) < key(*best))) best = i;
    }
    return best;
  };

  for (int round = 0; round < rounds; ++round) {
    const int burst = 1 + static_cast<int>(rng.uniform_index(4));
    for (int b = 0; b < burst; ++b) {
      const int tag = round * 16 + b;
      const Duration delay{std::chrono::milliseconds(rng.uniform_index(20))};
      schedule(delay, tag, [&, tag] {
        // Half the callbacks schedule a follow-up, as timers/deliveries do.
        if (rng.bernoulli(0.5)) {
          const Duration d{std::chrono::milliseconds(1 + rng.uniform_index(5))};
          schedule(d, tag + 8, [] {});
        }
      });
    }
    if (!ids.empty() && rng.bernoulli(0.5)) {
      std::optional<std::size_t> pick;
      switch (static_cast<CancelTarget>(
          rng.uniform_index(static_cast<std::uint64_t>(CancelTarget::kCount)))) {
        case CancelTarget::AnyId:  // often stale: must be rejected identically
          pick = rng.uniform_index(ids.size());
          break;
        case CancelTarget::Head:
          pick = pick_pending([&](std::size_t i) { return due_ns[i]; });
          break;
        case CancelTarget::Newest:
          pick = pick_pending([&](std::size_t i) { return -static_cast<std::int64_t>(i); });
          break;
        case CancelTarget::Latest:
          pick = pick_pending([&](std::size_t i) { return -due_ns[i]; });
          break;
        case CancelTarget::Interior: {
          std::vector<std::size_t> live_ids;
          for (std::size_t i = 0; i < ids.size(); ++i) {
            if (pending[i]) live_ids.push_back(i);
          }
          if (!live_ids.empty()) pick = live_ids[rng.uniform_index(live_ids.size())];
          break;
        }
        case CancelTarget::kCount: break;
      }
      if (pick) {
        const bool expected = pending[*pick];
        const bool r = engine.cancel(ids[*pick]);
        EXPECT_EQ(r, expected) << "event " << *pick;
        if (r) {
          pending[*pick] = false;
          --live;
        }
        trace.push_back(FireRecord{static_cast<std::int64_t>(r), -1 - static_cast<int>(*pick)});
        check_pending();
      }
    }
    if (rng.bernoulli(0.6)) {
      engine.step();
      check_pending();
    }
  }
  while (engine.step()) check_pending();
  EXPECT_EQ(live, 0u);
}

TEST(Cancellation, TraceByteIdenticalToSeedEngine) {
  // Drive both engines through the same randomized schedule/cancel/step
  // script — same delays, same cancel picks, same mid-callback schedules —
  // and require identical fire traces, cancel outcomes and pending counts
  // after every operation. Several seeds cover different interleavings; ties
  // (quantized delays) are frequent on purpose to stress FIFO ordering, and
  // cancels hit the head, the newest, the latest and interior entries.
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 99ULL, 2024ULL, 31337ULL}) {
    Rng script_new(seed);
    Rng script_ref(seed);
    Simulator sim;
    ReferenceSimulator ref;
    std::vector<FireRecord> trace_new;
    std::vector<FireRecord> trace_ref;

    drive_script(sim, script_new, 2000, trace_new);
    drive_script(ref, script_ref, 2000, trace_ref);

    ASSERT_EQ(trace_new.size(), trace_ref.size()) << "seed " << seed;
    EXPECT_EQ(trace_new, trace_ref) << "seed " << seed;
    EXPECT_EQ(sim.now(), ref.now()) << "seed " << seed;
    EXPECT_EQ(sim.pending(), 0u) << "seed " << seed;
    EXPECT_EQ(ref.pending(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dyna::sim
