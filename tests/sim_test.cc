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
  // Same bound for events in the staging tier (beyond the near window). A small refill
  // batch keeps most of the far backlog staged while the clock runs into it, so refills
  // keep merging fresh events into the sorted backlog, cancels tombstone staged
  // entries, and compaction must keep physical state proportional to the live
  // population without breaking any slot's backlink.
  Simulation::Config config;
  config.refill_batch = 16;
  config.merge_threshold = 8;
  Simulation sim(config);
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

TEST(Simulation, CancelOfStagedEventPreventsExecutionAndOrderHolds) {
  // A one-event refill batch keeps the far backlog staged: the first refills move only
  // the 1 h event and d0 to the heap, so d1..d4 are canceled as staged entries
  // (tombstones). The third staged cancel leaves more tombstones than live entries and
  // compacts the backlog, which moves d4 and the 2 h + 5 event to new positions.
  Simulation::Config config;
  config.refill_batch = 1;
  Simulation sim(config);
  std::vector<int> fired;
  sim.Schedule(10, [&] { fired.push_back(0); });
  sim.Schedule(kHour, [&] { fired.push_back(1); });
  std::vector<EventId> doomed;  // d0..d4
  for (int i = 0; i < 5; ++i) {
    doomed.push_back(sim.Schedule(2 * kHour + i, [&] { fired.push_back(-1); }));
  }
  sim.Schedule(2 * kHour + 5, [&] { fired.push_back(2); });
  sim.RunUntil(kMinute);
  ASSERT_EQ(sim.heap_events(), 2u);    // the 1 h event and d0
  ASSERT_EQ(sim.staged_events(), 5u);  // d1..d4 and the 2 h + 5 event
  EXPECT_TRUE(sim.Cancel(doomed[0]));
  EXPECT_EQ(sim.heap_events(), 1u);
  for (int i = 1; i < 5; ++i) {
    // Nothing was scheduled since the refill, so every non-heap event is staged.
    EXPECT_TRUE(sim.Cancel(doomed[static_cast<size_t>(i)]));
    EXPECT_EQ(sim.heap_events(), 1u);
    EXPECT_EQ(sim.staged_events(), static_cast<size_t>(5 - i));
    AuditReport audit = SimulationAuditor::AuditArena(sim);
    EXPECT_TRUE(audit.empty()) << "after canceling d" << i << ": " << audit.front();
  }
  for (EventId id : doomed) {
    EXPECT_FALSE(sim.Cancel(id));
  }
  sim.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Reference engine mirroring the pre-arena implementation: a (time, seq) ordered map.
// The arena engine's two-tier queue, slot recycling and packed entries must be
// invisible next to it.
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
  // Randomized cross-check of the full firing sequence: near events, far (staged)
  // events, cancels of both, and callbacks that schedule more work.
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

TEST(Simulation, ShrunkNearWindowKeepsDenseNearScheduleOffHotHeap) {
  // ROADMAP follow-up from the arena PR: workloads that schedule dense traffic just
  // past the default 1 s near window used to pin it all on the hot heap. With an
  // injectable config, a shrunk near window parks that schedule in the staging tier.
  Simulation::Config config;
  config.near_window = 100 * kMillisecond;
  Simulation sim(config);
  EXPECT_EQ(sim.config().near_window, 100 * kMillisecond);

  // Dense burst straddling one second out: the half just inside 1 s would ride the
  // hot heap under the default window; everything is past the shrunk one.
  auto dense_schedule = [](Simulation& target, std::function<void()> fn) {
    for (int i = 0; i < 2048; ++i) {
      target.ScheduleAt(kSecond - kMillisecond + i, fn);  // just inside 1 s
      target.ScheduleAt(kSecond + kMillisecond + i, fn);  // just past 1 s
    }
  };
  int fired = 0;
  dense_schedule(sim, [&] { ++fired; });
  EXPECT_EQ(sim.heap_events(), 0u) << "dense ~1s-out schedule landed on the hot heap";
  EXPECT_EQ(sim.staged_events(), 4096u);

  // Default config (1 s near window): the half inside the window goes straight to the
  // heap; only the just-past-1s half is staged.
  Simulation default_sim;
  dense_schedule(default_sim, [] {});
  EXPECT_EQ(default_sim.heap_events(), 2048u);
  EXPECT_EQ(default_sim.staged_events(), 2048u);

  // The tiering stays invisible: everything fires, in order, exactly once.
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 4096);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, StagingConfigDoesNotChangeFiringOrder) {
  // Any staging tuning must be semantically invisible: the firing sequence is decided
  // purely by (time, scheduling order).
  std::vector<Simulation::Config> configs(3);
  configs[1].near_window = 0;
  configs[1].refill_batch = 1;
  configs[1].merge_threshold = 1;
  configs[2].near_window = 30 * kSecond;
  configs[2].refill_batch = 7;
  configs[2].merge_threshold = 4;

  std::vector<std::vector<std::pair<TimeNs, int>>> fired(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    Simulation sim(configs[c]);
    uint64_t lcg = 12345;
    for (int i = 0; i < 2000; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      TimeNs when = static_cast<TimeNs>((lcg >> 33) % (20 * kSecond));
      sim.ScheduleAt(when, [&fired, c, i, &sim] { fired[c].push_back({sim.now(), i}); });
    }
    sim.RunUntilIdle();
  }
  EXPECT_EQ(fired[0], fired[1]);
  EXPECT_EQ(fired[0], fired[2]);
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
