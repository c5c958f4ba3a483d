#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "src/cluster/fragmentation.h"
#include "src/core/allocation.h"
#include "src/core/cv_monitor.h"
#include "src/core/granularity.h"
#include "src/core/queueing.h"
#include "src/core/scaling.h"
#include "src/model/profiler.h"
#include "src/partition/partitioner.h"
#include "src/trace/arrival.h"

namespace flexpipe {
namespace {

// ---------- CV monitor ----------

TEST(CvMonitor, TracksGammaArrivalCv) {
  for (double target : {0.5, 1.0, 4.0}) {
    CvMonitor::Config config;
    config.window_arrivals = 4096;
    CvMonitor monitor(config);
    GammaArrivals arrivals(50.0, target);
    Rng rng(3);
    TimeNs t = 0;
    for (int i = 0; i < 5000; ++i) {
      t += arrivals.NextGap(rng);
      monitor.RecordArrival(t);
    }
    EXPECT_NEAR(monitor.Cv(), target, target * 0.25) << "target " << target;
  }
}

TEST(CvMonitor, RateAndGradient) {
  CvMonitor monitor;
  // 10 req/s for 5 s, then 40 req/s for 5 s.
  TimeNs t = 0;
  for (int i = 0; i < 50; ++i) {
    t += 100 * kMillisecond;
    monitor.RecordArrival(t);
  }
  for (int i = 0; i < 200; ++i) {
    t += 25 * kMillisecond;
    monitor.RecordArrival(t);
  }
  EXPECT_NEAR(monitor.RatePerSec(t), 40.0, 5.0);
  EXPECT_GT(monitor.RateGradient(t), 0.0);  // building burst detected
}

// Naive reference for the ring-buffer monitor: the pre-ring deque implementation
// (Welford-free sliding sums + std::lower_bound window counts over all retained
// timestamps). The production monitor must match it bit-for-bit.
struct ReferenceCvMonitor {
  explicit ReferenceCvMonitor(const CvMonitor::Config& config_in)
      : config(config_in), gaps(config_in.window_arrivals) {}

  void RecordArrival(TimeNs now) {
    if (last_arrival >= 0) {
      gaps.Add(ToSeconds(now - last_arrival));
    }
    last_arrival = now;
    recent.push_back(now);
    TimeNs horizon = now - 2 * config.rate_window;
    while (!recent.empty() && recent.front() < horizon) {
      recent.pop_front();
    }
  }

  size_t CountIn(TimeNs begin, TimeNs end) const {
    auto lo = std::lower_bound(recent.begin(), recent.end(), begin);
    auto hi = std::lower_bound(recent.begin(), recent.end(), end);
    return static_cast<size_t>(hi - lo);
  }

  double RatePerSec(TimeNs now) const {
    double w = ToSeconds(config.rate_window);
    return static_cast<double>(CountIn(now - config.rate_window, now + 1)) / w;
  }

  double RateGradient(TimeNs now) const {
    double w = ToSeconds(config.rate_window);
    double newer = static_cast<double>(CountIn(now - config.rate_window, now + 1)) / w;
    double older = static_cast<double>(
                       CountIn(now - 2 * config.rate_window, now - config.rate_window)) /
                   w;
    return (newer - older) / w;
  }

  CvMonitor::Config config;
  SlidingWindowStats gaps;
  TimeNs last_arrival = -1;
  std::deque<TimeNs> recent;
};

TEST(CvMonitor, RingMatchesNaiveReferenceRandomized) {
  Rng rng(271828);
  for (int round = 0; round < 20; ++round) {
    CvMonitor::Config config;
    config.window_arrivals = static_cast<size_t>(rng.UniformInt(2, 64));
    config.rate_window = rng.UniformInt(1, 4) * kSecond;
    CvMonitor monitor(config);
    ReferenceCvMonitor reference(config);

    TimeNs t = 0;
    for (int i = 0; i < 3000; ++i) {
      // Mixed regimes: calm, bursty (many same-window arrivals), and long silences
      // that prune the whole retention window at once.
      double mean_gap_s;
      switch (rng.UniformInt(0, 3)) {
        case 0: mean_gap_s = 0.002; break;
        case 1: mean_gap_s = 0.05; break;
        case 2: mean_gap_s = 1.0; break;
        default: mean_gap_s = 12.0; break;
      }
      t += std::max<TimeNs>(1, FromSeconds(rng.ExponentialMean(mean_gap_s)));
      monitor.RecordArrival(t);
      reference.RecordArrival(t);

      if (i % 7 == 0) {
        // Query at a time at or after the arrival, like a controller tick would.
        TimeNs q = t + rng.UniformInt(0, 3) * kSecond;
        EXPECT_EQ(monitor.RatePerSec(q), reference.RatePerSec(q)) << "round " << round;
        EXPECT_EQ(monitor.RateGradient(q), reference.RateGradient(q)) << "round " << round;
        EXPECT_EQ(monitor.Cv(), reference.gaps.cv()) << "round " << round;
        EXPECT_EQ(monitor.samples(), reference.gaps.size());
        if (i % 21 == 0) {
          // Out-of-order (rewinding) query: cursors must back up correctly.
          TimeNs back = t - rng.UniformInt(0, 5) * kSecond;
          EXPECT_EQ(monitor.RatePerSec(back), reference.RatePerSec(back));
          EXPECT_EQ(monitor.RateGradient(back), reference.RateGradient(back));
        }
      }
    }
  }
}

// ---------- Eq. 1 queueing model ----------

TEST(Queueing, UnstableSystemDiverges) {
  GgsParams p;
  p.lambda = 10.0;
  p.mu = 2.0;
  p.servers = 4;  // capacity 8 < 10
  EXPECT_TRUE(std::isinf(GgsTotalLatency(p)));
}

TEST(Queueing, LatencyGrowsWithArrivalCv) {
  GgsParams p;
  p.lambda = 6.0;
  p.mu = 2.0;
  p.servers = 4;
  p.cv_service = 0.5;
  double prev = 0.0;
  for (double cv : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    p.cv_arrival = cv;
    double t = GgsTotalLatency(p);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Queueing, StageCongestionBlowsUpNearSaturation) {
  double relaxed = StageCongestionDelay({1.0, 1.0}, {2.0, 2.0});
  double tight = StageCongestionDelay({1.9, 1.9}, {2.0, 2.0});
  EXPECT_GT(tight, relaxed * 5);
  EXPECT_TRUE(std::isinf(StageCongestionDelay({2.0}, {2.0})));
}

TEST(Queueing, OptimalStagesIncreaseWithCv) {
  // Finer stages are individually faster: mu(S) grows ~linearly with S.
  auto mu_of_s = [](int s) { return 1.2 * static_cast<double>(s); };
  int coarse = OptimalStageCount(4.0, 0.5, 0.5, 1, 32, mu_of_s);
  int fine = OptimalStageCount(4.0, 6.0, 0.5, 1, 32, mu_of_s);
  EXPECT_GE(fine, coarse);  // §3.3: deeper pipelines absorb bursty load
}

// ---------- Granularity controller (Eq. 4 / Eq. 5) ----------

class GranularityTest : public ::testing::Test {
 protected:
  GranularityTest() : cluster_(EvalClusterConfig()), network_(&cluster_, NetworkConfig{}) {
    Profiler profiler(&cost_, Profiler::Config{});
    ComputationGraph graph = ComputationGraph::Build(Opt66B());
    ModelProfile profile = profiler.Profile(graph);
    Partitioner partitioner;
    ladder_ = partitioner.BuildLadder(profile);
    controller_ = std::make_unique<GranularityController>(&ladder_, &cost_, &network_,
                                                          WorkloadAssumptions{},
                                                          GranularityConfig{});
  }
  Cluster cluster_;
  NetworkModel network_;
  CostModel cost_;
  GranularityLadder ladder_;
  std::unique_ptr<GranularityController> controller_;
};

TEST_F(GranularityTest, OptionsCoverLadder) {
  EXPECT_EQ(controller_->options().size(), ladder_.granularities.size());
  for (const auto& opt : controller_->options()) {
    EXPECT_GT(opt.throughput_rps, 0.0);
    EXPECT_GT(opt.latency_s, 0.0);
    EXPECT_EQ(opt.max_batch, 32 * opt.stages);
  }
}

TEST_F(GranularityTest, FinerStagesHigherThroughputHigherLatency) {
  const auto& coarse = controller_->OptionFor(4);
  const auto& fine = controller_->OptionFor(32);
  EXPECT_GT(fine.throughput_rps, coarse.throughput_rps);
  EXPECT_GT(fine.latency_s, coarse.latency_s);
}

TEST_F(GranularityTest, SelectionIsMonotoneInCv) {
  int prev = 0;
  for (double cv : {0.3, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    int stages = controller_->SelectStageCount(cv, /*current=*/0);
    EXPECT_GE(stages, prev) << "cv " << cv;
    prev = stages;
  }
  EXPECT_GT(prev, controller_->SelectStageCount(0.3, 0));  // it actually moves
}

TEST_F(GranularityTest, HysteresisKeepsIncumbent) {
  // At a CV right between two granularities, the incumbent should win.
  int a = controller_->SelectStageCount(1.0, 0);
  auto rung = std::upper_bound(ladder_.granularities.begin(), ladder_.granularities.end(), a);
  ASSERT_NE(rung, ladder_.granularities.end());
  int finer = *rung;
  // Find a CV where the fresh choice flips to `finer`.
  double flip_cv = 0.0;
  for (double cv = 1.0; cv < 32.0; cv *= 1.05) {
    if (controller_->SelectStageCount(cv, 0) == finer) {
      flip_cv = cv;
      break;
    }
  }
  ASSERT_GT(flip_cv, 0.0);
  // Just below the flip, holding the incumbent must not switch.
  EXPECT_EQ(controller_->SelectStageCount(flip_cv * 0.98, a), a);
}

TEST_F(GranularityTest, InstancesScaleWithDemand) {
  int low = controller_->InstancesFor(2.0, 4);
  int high = controller_->InstancesFor(40.0, 4);
  EXPECT_GE(high, low);
  EXPECT_GE(low, 1);
}

// ---------- Eq. 11 / Eq. 12 ----------

TEST(Scaling, GranularityDecisionSigmoid) {
  ScalingConfig config;
  int calm = ScalingGranularity(0.5, 0.05, config);
  int storm = ScalingGranularity(8.0, 1.0, config);
  EXPECT_LT(calm, storm);
  EXPECT_LE(storm, config.g_max);
  EXPECT_GE(calm, 1);
  // Monotone in pressure.
  int prev = 0;
  for (double q : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    int m = ScalingGranularity(4.0, q, config);
    EXPECT_GE(m, prev);
    prev = m;
  }
}

TEST(Scaling, SloFeasibility) {
  // 10 s deadline, 2 s init, 2 rps per stage, 4 stages -> 64 request capacity.
  EXPECT_TRUE(SloFeasible(10 * kSecond, 2 * kSecond, 2.0, 4, 32));
  // 1 s deadline with 2 s init is hopeless.
  EXPECT_FALSE(SloFeasible(1 * kSecond, 2 * kSecond, 2.0, 4, 32));
  EXPECT_TRUE(SloFeasible(1 * kSecond, 2 * kSecond, 2.0, 4, 0));
}

TEST(Scaling, SloFeasibilityBoundary) {
  // Eq. 12's backlog divisor cancels out of both sides, so feasibility is exactly
  // capacity >= required. Pin the boundary: 4 s usable * 2 rps * 4 stages = 32.
  EXPECT_TRUE(SloFeasible(6 * kSecond, 2 * kSecond, 2.0, 4, 32));   // capacity == required
  EXPECT_FALSE(SloFeasible(6 * kSecond, 2 * kSecond, 2.0, 4, 33));  // one over
  EXPECT_TRUE(SloFeasible(6 * kSecond, 2 * kSecond, 2.0, 4, 31));   // one under
  // Zero (or negative) required work is always feasible, even with no usable window.
  EXPECT_TRUE(SloFeasible(2 * kSecond, 2 * kSecond, 2.0, 4, 0));
  EXPECT_TRUE(SloFeasible(2 * kSecond, 3 * kSecond, 2.0, 4, -1));
  // Exactly zero usable time with work pending is infeasible.
  EXPECT_FALSE(SloFeasible(2 * kSecond, 2 * kSecond, 2.0, 4, 1));
}

// ---------- HRG ----------

TEST(Hrg, ContentionDecaysOverTime) {
  Cluster cluster(EvalClusterConfig());
  HierarchicalResourceGraph hrg(&cluster, HierarchicalResourceGraph::Config{});
  hrg.RecordScalingEvent(0, 0);
  hrg.RecordScalingEvent(0, 0);
  double hot = hrg.ServerContention(0, 0);
  double cooled = hrg.ServerContention(0, 60 * kSecond);
  EXPECT_GT(hot, 0.5);
  EXPECT_LT(cooled, 0.05);
  EXPECT_EQ(hrg.ServerContention(5, 0), 0.0);
}

TEST(Hrg, RackContentionSpreads) {
  Cluster cluster(EvalClusterConfig());
  HierarchicalResourceGraph hrg(&cluster, HierarchicalResourceGraph::Config{});
  ServerId s0 = 0;
  RackId rack = cluster.RackOf(s0);
  hrg.RecordScalingEvent(s0, 0);
  EXPECT_GT(hrg.RackContention(rack, 0), 0.0);
  // Another server in the same rack sees a placement penalty via the rack term.
  for (ServerId s = 1; s < cluster.server_count(); ++s) {
    if (cluster.RackOf(s) == rack) {
      EXPECT_GT(hrg.PlacementPenalty(s, 0), 0.0);
      break;
    }
  }
}

TEST(Hrg, LoadSlowdownGrowsWithStreams) {
  Cluster cluster(EvalClusterConfig());
  HierarchicalResourceGraph::Config config;
  config.server_stream_capacity = 2;
  HierarchicalResourceGraph hrg(&cluster, config);
  EXPECT_DOUBLE_EQ(hrg.LoadSlowdown(0), 1.0);
  hrg.AddLoadStream(0);
  hrg.AddLoadStream(0);
  EXPECT_GT(hrg.LoadSlowdown(0), 1.0);
  hrg.RemoveLoadStream(0);
  hrg.RemoveLoadStream(0);
  EXPECT_DOUBLE_EQ(hrg.LoadSlowdown(0), 1.0);
}

// ---------- Host cache + affinity (Eq. 13) ----------

TEST(HostCache, PutCoverageAndTouch) {
  Cluster cluster(EvalClusterConfig());
  HostParamCache cache(&cluster);
  cache.Put(0, /*model=*/1, 0, 8, GiB(30), 0);
  EXPECT_DOUBLE_EQ(cache.Coverage(0, 1, 0, 8), 1.0);
  EXPECT_DOUBLE_EQ(cache.Coverage(0, 1, 0, 16), 0.5);
  EXPECT_DOUBLE_EQ(cache.Coverage(0, 2, 0, 8), 0.0);
  EXPECT_DOUBLE_EQ(cache.Coverage(1, 1, 0, 8), 0.0);
  EXPECT_EQ(cache.LastHosted(0, 1), 0);
  cache.Touch(0, 1, 5 * kSecond);
  EXPECT_EQ(cache.LastHosted(0, 1), 5 * kSecond);
}

TEST(HostCache, LruEvictionUnderBudget) {
  Cluster cluster(EvalClusterConfig());
  // Budget = 50% of 256 GiB = 128 GiB.
  HostParamCache cache(&cluster, 0.5);
  cache.Put(0, 1, 0, 4, GiB(60), /*now=*/0);
  cache.Put(0, 1, 4, 8, GiB(60), /*now=*/kSecond);
  EXPECT_EQ(cache.UsedOn(0), GiB(120));
  // Third entry forces the oldest out.
  cache.Put(0, 1, 8, 12, GiB(60), /*now=*/2 * kSecond);
  EXPECT_LE(cache.UsedOn(0), GiB(128));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_DOUBLE_EQ(cache.Coverage(0, 1, 0, 4), 0.0);  // LRU victim
  EXPECT_DOUBLE_EQ(cache.Coverage(0, 1, 8, 12), 1.0);
}

TEST(Affinity, RecentHostScoresHigher) {
  Cluster cluster(EvalClusterConfig());
  HostParamCache cache(&cluster);
  ScalingConfig config;
  AffinityScheduler affinity(&cluster, &cache, config);
  cache.Put(0, 1, 0, 8, GiB(10), /*now=*/100 * kSecond);
  double warm = affinity.Score(0, 1, 101 * kSecond, GiB(10));
  double cold = affinity.Score(1, 1, 101 * kSecond, GiB(10));
  EXPECT_GT(warm, cold);
  // Temporal decay: much later, the edge shrinks.
  double stale = affinity.Score(0, 1, 100 * kSecond + 20 * kMinute, GiB(10));
  EXPECT_LT(stale, warm);
}

// ---------- Topology-aware placement (Eq. 6-9) ----------

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest() : cluster_(EvalClusterConfig()), network_(&cluster_, NetworkConfig{}) {
    Profiler profiler(&cost_, Profiler::Config{});
    ComputationGraph graph = ComputationGraph::Build(Opt66B());
    ModelProfile profile = profiler.Profile(graph);
    Partitioner partitioner;
    ladder_ = partitioner.BuildLadder(profile);
  }
  Cluster cluster_;
  NetworkModel network_;
  CostModel cost_;
  GranularityLadder ladder_;
  ModelPlacementRegistry registry_;
};

TEST_F(PlacementTest, PlacesOneGpuPerStageWithoutColocation) {
  TopologyAwarePlacer placer(&cluster_, &network_, &registry_, PlacementConfig{});
  const PipelinePlan& plan = ladder_.plan(8);
  auto gpus = placer.PlaceStages(plan, /*model=*/1, /*cv=*/1.0, nullptr, nullptr);
  ASSERT_EQ(gpus.size(), 8u);
  for (size_t i = 0; i < gpus.size(); ++i) {
    for (size_t j = i + 1; j < gpus.size(); ++j) {
      EXPECT_NE(gpus[i], gpus[j]);
    }
  }
}

TEST_F(PlacementTest, AntiColocationAcrossInstances) {
  TopologyAwarePlacer placer(&cluster_, &network_, &registry_, PlacementConfig{});
  const PipelinePlan& plan = ladder_.plan(4);
  auto first = placer.PlaceStages(plan, 1, 1.0, nullptr, nullptr);
  ASSERT_EQ(first.size(), 4u);
  for (size_t s = 0; s < first.size(); ++s) {
    cluster_.gpu(first[s]).Reserve(plan.stages[s].param_bytes, 0.6);
    registry_.Add(first[s], 1);
  }
  auto second = placer.PlaceStages(plan, 1, 1.0, nullptr, nullptr);
  ASSERT_EQ(second.size(), 4u);
  for (GpuId g : second) {
    for (GpuId f : first) {
      EXPECT_NE(g, f) << "same-model stages must not share a GPU (§6.2)";
    }
  }
}

TEST_F(PlacementTest, FailsWhenMemoryImpossible) {
  // Saturate every GPU.
  for (GpuId id : cluster_.AllGpuIds()) {
    cluster_.gpu(id).SetBackground(GiB(39.5), 0.9, 3);
  }
  TopologyAwarePlacer placer(&cluster_, &network_, &registry_, PlacementConfig{});
  auto gpus = placer.PlaceStages(ladder_.plan(4), 1, 1.0, nullptr, nullptr);
  EXPECT_TRUE(gpus.empty());
}

TEST_F(PlacementTest, HrgPenaltySteersAway) {
  TopologyAwarePlacer placer(&cluster_, &network_, &registry_, PlacementConfig{});
  const PipelinePlan& plan = ladder_.plan(4);
  auto baseline = placer.PlaceStages(plan, 1, 1.0, nullptr, nullptr);
  ASSERT_FALSE(baseline.empty());
  ServerId hot = cluster_.ServerOf(baseline[0]);
  auto penalize_hot = [&](ServerId s) { return s == hot ? 1.0 : 0.0; };
  auto steered = placer.PlaceStages(plan, 1, 1.0, penalize_hot, nullptr);
  ASSERT_FALSE(steered.empty());
  EXPECT_NE(cluster_.ServerOf(steered[0]), hot);
}

TEST(Registry, AddRemoveHosting) {
  ModelPlacementRegistry registry;
  registry.Add(3, 1);
  registry.Add(3, 2);
  EXPECT_TRUE(registry.HostsModel(3, 1));
  EXPECT_EQ(registry.ModelsOn(3), 2);
  registry.Remove(3, 1);
  EXPECT_FALSE(registry.HostsModel(3, 1));
  EXPECT_EQ(registry.ModelsOn(3), 1);
}

}  // namespace
}  // namespace flexpipe
