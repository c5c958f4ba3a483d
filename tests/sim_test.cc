#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "src/sim/auditor.h"
#include "src/sim/simulation.h"

namespace flexpipe {
namespace {

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, SameTimeEventsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double-cancel is a no-op
  sim.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(Simulation, NestedSchedulingFromCallback) {
  Simulation sim;
  std::vector<TimeNs> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.now());
    sim.Schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.RunUntilIdle();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 10);
  EXPECT_EQ(times[1], 15);
}

TEST(Simulation, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.RunUntil(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2, [&] { ++fired; });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, StepExecutesOneEvent) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1, [&] { ++fired; });
  sim.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CancelFromInsideFiringCallback) {
  // A firing callback may cancel events scheduled for the same instant (later in FIFO
  // order) as well as future events; canceling the currently-firing event is a no-op.
  Simulation sim;
  std::vector<int> order;
  EventId self = 0;
  EventId same_time = 0;
  EventId future = 0;
  self = sim.Schedule(10, [&] {
    order.push_back(1);
    EXPECT_FALSE(sim.Cancel(self));  // already firing: no longer cancelable
    EXPECT_TRUE(sim.Cancel(same_time));
    EXPECT_TRUE(sim.Cancel(future));
  });
  same_time = sim.Schedule(10, [&] { order.push_back(2); });
  future = sim.Schedule(20, [&] { order.push_back(3); });
  sim.Schedule(30, [&] { order.push_back(4); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 4}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, ScheduleCancelChurnStaysBounded) {
  // Regression for the old engine's tombstone leak: canceled events left their heap
  // entries behind forever, so schedule/cancel churn (PeriodicTask-heavy multi-model
  // runs) grew the queue without bound. The arena recycles slots and queue entries, so
  // physical state must track the live population, not the churn count.
  Simulation sim;
  // A baseline population keeps the engine non-trivial while churning.
  for (int i = 0; i < 64; ++i) {
    sim.Schedule(kSecond + i, [] {});
  }
  const size_t baseline_pending = sim.pending_events();
  for (int i = 0; i < 200000; ++i) {
    EventId id = sim.Schedule(kMillisecond, [] {});
    ASSERT_TRUE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), baseline_pending);
  // Slots are the high-water mark of *concurrently* pending events — the 200k churned
  // events reused one slot, they did not each claim a new one.
  EXPECT_LE(sim.arena_slots(), baseline_pending + 2);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, FarFutureChurnStaysBounded) {
  // Same bound for a far-future backlog the clock keeps running into: each round
  // schedules 100 events 2-7 s out, cancels every other pending one (the oldest as well
  // as the newest) and advances a second. Physical state must stay proportional to the
  // live population without breaking any slot's heap backlink.
  Simulation sim;
  enum : char { kPending, kCanceled, kFired };
  std::vector<char> state;  // per scheduled event
  std::vector<EventId> ids;
  std::vector<size_t> live;  // indices of pending events, in scheduling order
  for (int round = 0; round < 2000; ++round) {
    for (int i = 0; i < 100; ++i) {
      size_t index = state.size();
      state.push_back(kPending);
      ids.push_back(sim.Schedule(2 * kSecond + i * 50 * kMillisecond, [&state, index] {
        EXPECT_EQ(state[index], kPending) << "event " << index;
        state[index] = kFired;
      }));
      live.push_back(index);
    }
    for (size_t i = 0; i < live.size(); i += 2) {
      ASSERT_TRUE(sim.Cancel(ids[live[i]])) << "round " << round;
      state[live[i]] = kCanceled;
    }
    sim.RunUntil(sim.now() + kSecond);
    std::erase_if(live, [&state](size_t index) { return state[index] != kPending; });
    ASSERT_EQ(sim.pending_events(), live.size()) << "round " << round;
    ASSERT_LE(sim.arena_slots(), sim.pending_events() + 256) << "round " << round;
    AuditReport audit = SimulationAuditor::AuditArena(sim);
    ASSERT_TRUE(audit.empty()) << "round " << round << ": " << audit.front();
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(std::count(state.begin(), state.end(), kPending), 0);
}

// Reference engine mirroring the pre-arena implementation: a (time, seq) ordered map.
// The arena engine's slot recycling and packed heap entries must be invisible next
// to it.
class ReferenceEngine {
 public:
  uint64_t Schedule(TimeNs when, std::function<void()> fn) {
    uint64_t id = next_++;
    events_.emplace(std::make_pair(when, id), std::move(fn));
    return id;
  }
  bool Cancel(TimeNs when, uint64_t id) { return events_.erase({when, id}) > 0; }
  // Runs everything in (time, scheduling order).
  void Drain(TimeNs* now) {
    while (!events_.empty()) {
      auto it = events_.begin();
      *now = it->first.first;
      auto fn = std::move(it->second);
      events_.erase(it);
      fn();
    }
  }

 private:
  uint64_t next_ = 1;
  std::map<std::pair<TimeNs, uint64_t>, std::function<void()>> events_;
};

TEST(Simulation, RandomizedScheduleCancelMatchesReferenceEngine) {
  // Randomized cross-check of the full firing sequence: events up to hours out,
  // cancels, and callbacks that schedule more work.
  std::mt19937_64 rng(987654321);
  for (int trial = 0; trial < 25; ++trial) {
    Simulation sim;
    ReferenceEngine ref;
    TimeNs ref_now = 0;
    std::vector<std::pair<TimeNs, int>> sim_fired;
    std::vector<std::pair<TimeNs, int>> ref_fired;

    std::uniform_int_distribution<TimeNs> delay_dist(0, 3 * kHour);
    std::uniform_int_distribution<int> fanout_dist(0, 2);
    std::vector<std::pair<EventId, std::pair<TimeNs, uint64_t>>> cancelable;

    int next_tag = 0;
    std::function<void(int, int)> spawn = [&](int tag, int depth) {
      TimeNs delay = delay_dist(rng);
      int fanout = fanout_dist(rng);
      TimeNs sim_when = sim.now() + delay;
      // The reference engine schedules relative to its own clock; the sequences agree
      // because both engines fire identically up to this point.
      EventId id = sim.Schedule(delay, [&, tag, fanout, depth] {
        sim_fired.push_back({sim.now(), tag});
        if (depth < 2) {
          for (int f = 0; f < fanout; ++f) {
            // Children deterministically derive their delays from the parent tag so
            // both engines request identical schedules without sharing the rng.
            TimeNs child_delay = (tag * 7919 + f * 104729) % (2 * kHour);
            int child_tag = tag * 10 + f + 1;
            sim.Schedule(child_delay, [&, child_tag] {
              sim_fired.push_back({sim.now(), child_tag});
            });
          }
        }
      });
      uint64_t ref_id = ref.Schedule(ref_now + delay, [&, tag, fanout, depth, sim_when] {
        ref_fired.push_back({ref_now, tag});
        if (depth < 2) {
          for (int f = 0; f < fanout; ++f) {
            TimeNs child_delay = (tag * 7919 + f * 104729) % (2 * kHour);
            int child_tag = tag * 10 + f + 1;
            ref.Schedule(ref_now + child_delay, [&, child_tag] {
              ref_fired.push_back({ref_now, child_tag});
            });
          }
        }
      });
      cancelable.push_back({id, {sim_when, ref_id}});
      (void)depth;
    };

    for (int i = 0; i < 200; ++i) {
      spawn(++next_tag, 0);
    }
    // Cancel a third of the top-level events; both engines must agree on each verdict.
    std::shuffle(cancelable.begin(), cancelable.end(), rng);
    for (size_t i = 0; i < cancelable.size() / 3; ++i) {
      bool a = sim.Cancel(cancelable[i].first);
      bool b = ref.Cancel(cancelable[i].second.first, cancelable[i].second.second);
      ASSERT_EQ(a, b);
    }

    sim.RunUntilIdle();
    ref.Drain(&ref_now);
    ASSERT_EQ(sim_fired, ref_fired) << "trial " << trial;
  }
}

TEST(PeriodicTask, FiresAtIntervalUntilCanceled) {
  Simulation sim;
  int ticks = 0;
  PeriodicTask task(&sim, 10, [&] { ++ticks; });
  sim.RunUntil(55);
  EXPECT_EQ(ticks, 5);
  task.Cancel();
  sim.RunUntil(200);
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTask, CancelFromWithinCallback) {
  Simulation sim;
  int ticks = 0;
  PeriodicTask task(&sim, 10, [&] {
    ++ticks;
    if (ticks == 3) {
      task.Cancel();
    }
  });
  sim.RunUntilIdle();
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTask, DestructorCancels) {
  Simulation sim;
  int ticks = 0;
  {
    PeriodicTask task(&sim, 10, [&] { ++ticks; });
    sim.RunUntil(25);
  }
  sim.RunUntil(100);
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTask, DestructionWhileArmedReleasesPendingEvent) {
  // Destroying a task between firings must remove its armed event from the engine so the
  // callback (and any captured state) is released, not merely skipped at fire time.
  Simulation sim;
  int ticks = 0;
  auto task = std::make_unique<PeriodicTask>(&sim, 10, [&] { ++ticks; });
  sim.RunUntil(15);  // one firing at t=10; the next is armed for t=20
  ASSERT_EQ(ticks, 1);
  ASSERT_EQ(sim.pending_events(), 1u);
  task.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunUntilIdle();
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(sim.now(), 15);  // the canceled event does not advance the clock
}

TEST(PeriodicTask, DestructionBeforeFirstFiring) {
  Simulation sim;
  int ticks = 0;
  { PeriodicTask task(&sim, 10, [&] { ++ticks; }); }
  sim.RunUntilIdle();
  EXPECT_EQ(ticks, 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace flexpipe
