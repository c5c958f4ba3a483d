// Fault-injection and recovery tests: the cluster-level fault primitives, the seeded
// storm builders, the goodput-dip recovery metric, and the end-to-end contracts the
// fig15 bench relies on — bit-identical storm replay at a fixed seed, exactly-once
// requeue of displaced requests (submitted == completed after the drain), partition
// heals restoring routability, and an armed-but-empty fault plan perturbing nothing
// (the mechanism behind the untouched fig9/fig13 golden signatures).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/cluster/topology.h"
#include "src/core/experiment.h"
#include "src/core/flexpipe_system.h"
#include "src/metrics/recovery.h"
#include "src/sim/auditor.h"
#include "src/sim/faults.h"
#include "src/sim/simulation.h"

namespace flexpipe {
namespace {

// -- Fault plan builders ------------------------------------------------------------------

TEST(FaultPlanTest, SingleServerAndRackPartitionShapes) {
  FaultPlan server = FaultPlan::SingleServer(5 * kSecond, /*server=*/3);
  ASSERT_EQ(server.events.size(), 1u);
  EXPECT_EQ(server.events[0].when, 5 * kSecond);
  EXPECT_EQ(server.events[0].kind, FaultKind::kServerFailure);
  EXPECT_EQ(server.events[0].target, 3);

  FaultPlan healing = FaultPlan::RackPartition(10 * kSecond, /*rack=*/1, 4 * kSecond);
  ASSERT_EQ(healing.events.size(), 2u);
  EXPECT_EQ(healing.events[0].kind, FaultKind::kRackPartition);
  EXPECT_EQ(healing.events[1].kind, FaultKind::kRackHeal);
  EXPECT_EQ(healing.events[1].when, 14 * kSecond);

  FaultPlan permanent = FaultPlan::RackPartition(10 * kSecond, /*rack=*/1, 0);
  EXPECT_EQ(permanent.events.size(), 1u);
  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlanTest, FleetChurnIsSeededAndSpaced) {
  Cluster cluster(EvalClusterConfig());
  int gpu_servers = 0;
  for (ServerId s = 0; s < cluster.server_count(); ++s) {
    if (!cluster.server(s).gpus.empty()) {
      ++gpu_servers;
    }
  }

  FaultPlan a = FaultPlan::FleetChurn(10 * kSecond, kSecond, 0.10, cluster, 99);
  FaultPlan b = FaultPlan::FleetChurn(10 * kSecond, kSecond, 0.10, cluster, 99);
  ASSERT_EQ(a.events.size(), static_cast<size_t>(gpu_servers / 10));
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].when, 10 * kSecond + static_cast<TimeNs>(i) * kSecond);
    EXPECT_EQ(a.events[i].kind, FaultKind::kServerFailure);
    EXPECT_EQ(a.events[i].target, b.events[i].target);  // same seed, same victims
  }
  // Victims are drawn without replacement.
  std::vector<int32_t> targets;
  for (const FaultEvent& e : a.events) {
    targets.push_back(e.target);
  }
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(std::adjacent_find(targets.begin(), targets.end()), targets.end());

  // A different seed reshuffles the victim sample.
  FaultPlan c = FaultPlan::FleetChurn(10 * kSecond, kSecond, 0.10, cluster, 100);
  bool any_differs = false;
  for (size_t i = 0; i < c.events.size(); ++i) {
    any_differs = any_differs || c.events[i].target != a.events[i].target;
  }
  EXPECT_TRUE(any_differs);
}

TEST(FaultPlanTest, PowerDomainOutageShapeAndStaggeredHeals) {
  Cluster cluster(EvalClusterConfig());
  const std::vector<RackId>& racks = cluster.PowerDomainRacks(1);
  ASSERT_FALSE(racks.empty());

  FaultPlan plan =
      FaultPlan::PowerDomainOutage(10 * kSecond, /*domain=*/1, cluster,
                                   /*heal_after=*/5 * kSecond, /*heal_stagger=*/2 * kSecond);
  ASSERT_EQ(plan.events.size(), 1u + racks.size());
  EXPECT_EQ(plan.events[0].when, 10 * kSecond);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kPowerDomainOutage);
  EXPECT_EQ(plan.events[0].target, 1);
  // Heals are per-rack, staggered in rack-id order: breakers reset a branch at a time.
  for (size_t i = 0; i < racks.size(); ++i) {
    const FaultEvent& heal = plan.events[1 + i];
    EXPECT_EQ(heal.kind, FaultKind::kRackHeal);
    EXPECT_EQ(heal.target, racks[i]);
    EXPECT_EQ(heal.when, 15 * kSecond + static_cast<TimeNs>(i) * 2 * kSecond);
  }

  FaultPlan permanent =
      FaultPlan::PowerDomainOutage(10 * kSecond, 1, cluster, /*heal_after=*/0);
  EXPECT_EQ(permanent.events.size(), 1u);
}

TEST(FaultPlanTest, ThermalCascadeIsSeededQuenchedAndMonotone) {
  Cluster cluster(EvalClusterConfig());
  ASSERT_GT(cluster.thermal_zone_count(), 4);
  const ThermalZoneId seed_zone = cluster.thermal_zone_count() / 2;

  // Same (cluster, seed) -> the exact same cascade schedule.
  FaultPlan a = FaultPlan::ThermalCascade(5 * kSecond, seed_zone, cluster, 0.7,
                                          2 * kSecond, 10 * kSecond, 17);
  FaultPlan b = FaultPlan::ThermalCascade(5 * kSecond, seed_zone, cluster, 0.7,
                                          2 * kSecond, 10 * kSecond, 17);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].when, b.events[i].when);
    EXPECT_EQ(a.events[i].kind, FaultKind::kThermalZoneFailure);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
  }

  // Spread factor 0: the cascade never leaves the seed zone.
  FaultPlan cold = FaultPlan::ThermalCascade(5 * kSecond, seed_zone, cluster, 0.0,
                                             2 * kSecond, 10 * kSecond, 17);
  ASSERT_EQ(cold.events.size(), 1u);
  EXPECT_EQ(cold.events[0].target, seed_zone);

  // Spread factor 1 is fully deterministic: each generation infects both linear
  // neighbours of the frontier until cooling quenches at start + quench_after, so
  // every event time is a whole number of intervals before the quench, each zone
  // dies at most once, and times never decrease.
  FaultPlan hot = FaultPlan::ThermalCascade(5 * kSecond, seed_zone, cluster, 1.0,
                                            2 * kSecond, 6 * kSecond, 17);
  EXPECT_EQ(hot.events.size(), 5u);  // seed, then ±1, then ±2 (quench stops step 3)
  std::vector<int32_t> zones;
  for (size_t i = 0; i < hot.events.size(); ++i) {
    EXPECT_LT(hot.events[i].when, 5 * kSecond + 6 * kSecond);
    EXPECT_EQ((hot.events[i].when - 5 * kSecond) % (2 * kSecond), 0);
    if (i > 0) {
      EXPECT_GE(hot.events[i].when, hot.events[i - 1].when);
    }
    zones.push_back(hot.events[i].target);
  }
  std::sort(zones.begin(), zones.end());
  EXPECT_EQ(std::adjacent_find(zones.begin(), zones.end()), zones.end());
}

// -- Cluster fault primitives -------------------------------------------------------------

TEST(ClusterFaultTest, FailedGpuLeavesIndexButKeepsAccounting) {
  Cluster cluster(EvalClusterConfig());
  const GpuId victim = 0;
  cluster.gpu(victim).Reserve(GiB(10), 0.3);
  ASSERT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());

  cluster.SetGpuFailed(victim);
  EXPECT_TRUE(cluster.GpuFailed(victim));
  EXPECT_FALSE(cluster.GpuUsable(victim));
  EXPECT_EQ(cluster.failed_gpu_count(), 1);

  std::vector<GpuId> free = cluster.GpusWithFreeMemory(GiB(1));
  EXPECT_EQ(std::find(free.begin(), free.end(), victim), free.end());
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());

  // The owning system still releases what it reserved: Reserve/Release stays balanced
  // through the failure and the index (which already excludes the GPU) stays clean.
  cluster.gpu(victim).Release(GiB(10), 0.3);
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
}

TEST(ClusterFaultTest, ServerFailureKillsEveryGpu) {
  Cluster cluster(EvalClusterConfig());
  ServerId victim = -1;
  for (ServerId s = 0; s < cluster.server_count(); ++s) {
    if (cluster.server(s).gpus.size() > 1) {
      victim = s;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  cluster.SetServerFailed(victim);
  for (GpuId g : cluster.server(victim).gpus) {
    EXPECT_TRUE(cluster.GpuFailed(g));
    EXPECT_FALSE(cluster.GpuUsable(g));
  }
  EXPECT_EQ(cluster.failed_gpu_count(),
            static_cast<int>(cluster.server(victim).gpus.size()));
  EXPECT_EQ(cluster.server_max_free(victim), 0);
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
}

TEST(ClusterFaultTest, RackPartitionQuarantinesAndHealRestores) {
  Cluster cluster(EvalClusterConfig());
  const RackId rack = 0;
  std::vector<GpuId> rack_gpus;
  for (ServerId s : cluster.rack(rack).servers) {
    for (GpuId g : cluster.server(s).gpus) {
      rack_gpus.push_back(g);
    }
  }
  ASSERT_FALSE(rack_gpus.empty());
  const size_t usable_before = cluster.GpusWithFreeMemory(GiB(1)).size();

  cluster.SetRackReachable(rack, false);
  EXPECT_FALSE(cluster.RackReachable(rack));
  EXPECT_EQ(cluster.failed_gpu_count(), 0);  // partitioned, not dead
  for (GpuId g : rack_gpus) {
    EXPECT_FALSE(cluster.GpuUsable(g));
    EXPECT_FALSE(cluster.GpuFailed(g));
  }
  EXPECT_EQ(cluster.GpusWithFreeMemory(GiB(1)).size(), usable_before - rack_gpus.size());
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());

  cluster.SetRackReachable(rack, true);
  for (GpuId g : rack_gpus) {
    EXPECT_TRUE(cluster.GpuUsable(g));
  }
  EXPECT_EQ(cluster.GpusWithFreeMemory(GiB(1)).size(), usable_before);
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
}

TEST(ClusterFaultTest, PowerDomainOutageIsOneAtomicLossAndHealsRestore) {
  Simulation sim;
  Cluster cluster(EvalClusterConfig());
  std::vector<GpuId> domain_gpus;
  for (RackId r : cluster.PowerDomainRacks(0)) {
    for (ServerId s : cluster.rack(r).servers) {
      for (GpuId g : cluster.server(s).gpus) {
        domain_gpus.push_back(g);
      }
    }
  }
  ASSERT_FALSE(domain_gpus.empty());

  FaultInjector injector(&sim, &cluster);
  std::vector<std::vector<GpuId>> losses;
  injector.AddGpuLossListener(
      [&losses](const std::vector<GpuId>& lost) { losses.push_back(lost); });
  injector.Arm(FaultPlan::PowerDomainOutage(kSecond, /*domain=*/0, cluster,
                                            /*heal_after=*/2 * kSecond,
                                            /*heal_stagger=*/kSecond));
  sim.RunUntilIdle();

  // The whole domain dropped in ONE listener call — a pipeline spanning both racks
  // observes the full correlated loss atomically, not as two partial losses.
  ASSERT_EQ(losses.size(), 1u);
  EXPECT_EQ(losses[0].size(), domain_gpus.size());
  // Partitioned, not dead — and after the staggered heals everything is usable again.
  EXPECT_EQ(cluster.failed_gpu_count(), 0);
  for (GpuId g : domain_gpus) {
    EXPECT_TRUE(cluster.GpuUsable(g));
  }
  EXPECT_EQ(injector.faults_fired(),
            1 + static_cast<int>(cluster.PowerDomainRacks(0).size()));
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
}

TEST(ClusterFaultTest, ThermalZoneFailureKillsTheZonePermanently) {
  Simulation sim;
  Cluster cluster(EvalClusterConfig());
  const ThermalZoneId zone = 1;
  int zone_gpu_count = 0;
  for (ServerId s : cluster.ThermalZoneServers(zone)) {
    zone_gpu_count += static_cast<int>(cluster.server(s).gpus.size());
  }

  FaultInjector injector(&sim, &cluster);
  FaultPlan plan;
  plan.events.push_back({kSecond, FaultKind::kThermalZoneFailure, zone});
  injector.Arm(plan);
  sim.RunUntilIdle();

  EXPECT_EQ(cluster.failed_gpu_count(), zone_gpu_count);
  EXPECT_EQ(injector.gpus_lost(), zone_gpu_count);
  for (ServerId s : cluster.ThermalZoneServers(zone)) {
    EXPECT_EQ(cluster.server_max_free(s), 0);
    for (GpuId g : cluster.server(s).gpus) {
      EXPECT_TRUE(cluster.GpuFailed(g));
    }
  }
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
}

TEST(ClusterFaultTest, ComposedHealAndKillOrderingReportsLossesExactlyOnce) {
  Simulation sim;
  Cluster cluster(EvalClusterConfig());
  const RackId rack = 0;
  ASSERT_GE(cluster.rack(rack).servers.size(), 2u);
  // Two GPU-bearing servers in the partitioned rack.
  ServerId killed_while_down = kInvalidServer;
  ServerId killed_after_heal = kInvalidServer;
  for (ServerId s : cluster.rack(rack).servers) {
    if (cluster.server(s).gpus.empty()) {
      continue;
    }
    if (killed_while_down == kInvalidServer) {
      killed_while_down = s;
    } else if (killed_after_heal == kInvalidServer) {
      killed_after_heal = s;
    }
  }
  ASSERT_NE(killed_while_down, kInvalidServer);
  ASSERT_NE(killed_after_heal, kInvalidServer);

  FaultPlan plan;
  plan.events.push_back({1 * kSecond, FaultKind::kRackPartition, rack});
  // Killed mid-partition: its GPUs were already reported unusable, so this fires no
  // second loss notification — but the server is dead for good.
  plan.events.push_back({1500 * kMillisecond, FaultKind::kServerFailure, killed_while_down});
  plan.events.push_back({2 * kSecond, FaultKind::kRackHeal, rack});
  // Killed after the heal: its GPUs were usable again, so this IS a fresh loss.
  plan.events.push_back({3 * kSecond, FaultKind::kServerFailure, killed_after_heal});

  FaultInjector injector(&sim, &cluster);
  std::vector<std::vector<GpuId>> losses;
  injector.AddGpuLossListener(
      [&losses](const std::vector<GpuId>& lost) { losses.push_back(lost); });
  injector.Arm(plan);
  sim.RunUntilIdle();

  int rack_gpus = 0;
  for (ServerId s : cluster.rack(rack).servers) {
    rack_gpus += static_cast<int>(cluster.server(s).gpus.size());
  }
  const int dead_a = static_cast<int>(cluster.server(killed_while_down).gpus.size());
  const int dead_b = static_cast<int>(cluster.server(killed_after_heal).gpus.size());
  ASSERT_EQ(losses.size(), 2u);  // partition, then the post-heal kill; mid-partition kill is silent
  EXPECT_EQ(static_cast<int>(losses[0].size()), rack_gpus);
  EXPECT_EQ(static_cast<int>(losses[1].size()), dead_b);
  EXPECT_EQ(cluster.failed_gpu_count(), dead_a + dead_b);
  // The mid-partition death survives the heal: only genuinely healthy GPUs returned.
  for (GpuId g : cluster.server(killed_while_down).gpus) {
    EXPECT_FALSE(cluster.GpuUsable(g));
  }
  for (GpuId g : cluster.server(killed_after_heal).gpus) {
    EXPECT_FALSE(cluster.GpuUsable(g));
  }
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
}

// -- Goodput-dip recovery metric ----------------------------------------------------------

TEST(FailureRecoveryMetricTest, MeasuresDipDepthAreaAndRecoveryTime) {
  // Steady 10 rps, a 5-second outage at t=20s, then full rate again.
  std::vector<CompletionSample> completions;
  for (TimeNs t = 0; t < 60 * kSecond; t += 100 * kMillisecond) {
    if (t >= 20 * kSecond && t < 25 * kSecond) {
      continue;
    }
    completions.push_back({t, 50 * kMillisecond});
  }
  FailureRecoveryReport report = AnalyzeFailureRecovery(
      completions, {20 * kSecond}, /*horizon=*/60 * kSecond);
  EXPECT_EQ(report.fault_count, 1);
  EXPECT_TRUE(report.recovered);
  EXPECT_NEAR(report.pre_fault_goodput_rps, 10.0, 0.5);
  EXPECT_NEAR(report.time_to_recover_s, 5.0, 1.5);
  EXPECT_NEAR(report.dip_depth_rps, 10.0, 0.5);
  EXPECT_NEAR(report.dip_area_rps_s, 50.0, 10.0);
}

TEST(FailureRecoveryMetricTest, NeverRecoveringOutageIsReported) {
  std::vector<CompletionSample> completions;
  for (TimeNs t = 0; t < 20 * kSecond; t += 100 * kMillisecond) {
    completions.push_back({t, 50 * kMillisecond});
  }
  FailureRecoveryReport report = AnalyzeFailureRecovery(
      completions, {20 * kSecond}, /*horizon=*/60 * kSecond);
  EXPECT_EQ(report.fault_count, 1);
  EXPECT_FALSE(report.recovered);
  // The open episode charges its span to the horizon: strictly worse than any arm
  // that actually recovered within the series.
  EXPECT_NEAR(report.time_to_recover_s, 40.0, 1.5);
}

TEST(FailureRecoveryMetricTest, NoFaultsIsTriviallyRecovered) {
  FailureRecoveryReport report = AnalyzeFailureRecovery({}, {}, 60 * kSecond);
  EXPECT_EQ(report.fault_count, 0);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.dip_area_rps_s, 0.0);
}

// -- End-to-end storms --------------------------------------------------------------------

ExperimentEnvConfig SmallEnvConfig() {
  ExperimentEnvConfig config;
  config.models = {Llama2_7B()};
  config.partitioner.ladder = {2, 4, 8, 16};
  config.seed = 7;
  return config;
}

FlexPipeConfig SmallFlexPipeConfig() {
  FlexPipeConfig config;
  config.initial_stages = 4;
  config.target_peak_rps = 8.0;
  return config;
}

// Longer decodes than the audit-test workload so a mid-run fault reliably lands while
// requests are mid-decode (the interesting recovery case).
std::vector<RequestSpec> StormWorkload() {
  WorkloadGenerator::Config wconfig;
  wconfig.lengths.prompt_median = 256;
  wconfig.lengths.output_median = 64;
  WorkloadGenerator gen(wconfig);
  Rng rng(3);
  return gen.GenerateWithCv(rng, /*rate=*/4.0, /*cv=*/4.0, 30 * kSecond);
}

struct StormOutcome {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t events = 0;  // engine events net of the debug-build auditor's own
  ServingSystemBase::FailureStats stats;
  int faults_fired = 0;
  int gpus_lost = 0;
  std::vector<TimeNs> loss_times;
  std::vector<CompletionSample> completions;
  int64_t kv_invalidated_tokens = 0;
  // Submitted requests still holding a recovery mask after the drain (must be zero:
  // a mask is dropped when its request completes).
  int leaked_masks = 0;
  bool recovered = false;
};

int LeakedRecoveryMasks(const FlexPipeSystem& system, const std::vector<RequestSpec>& specs) {
  int leaked = 0;
  for (const RequestSpec& spec : specs) {
    leaked += system.recovery_mask_for(spec.id) != nullptr ? 1 : 0;
  }
  return leaked;
}

// Runs the small FlexPipe deployment under `plan` (armed only when `arm` is set, so the
// same helper produces the no-injector control run) and returns the full trace.
StormOutcome RunStorm(FaultRecoveryPolicy policy, bool arm, const FaultPlan& plan) {
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeConfig fconfig = SmallFlexPipeConfig();
  fconfig.fault_recovery = policy;
  FlexPipeSystem system(env.Context(), &env.ladder(0), fconfig);
  FaultInjector injector(&env.sim(), &env.cluster());
  injector.AddGpuLossListener(
      [&system](const std::vector<GpuId>& lost) { system.OnGpusLost(lost); });
  if (arm) {
    injector.Arm(plan);
  }

  std::vector<RequestSpec> specs = StormWorkload();
  VectorRequestStream stream(specs);
  StreamingRunReport report =
      RunStreamingWorkload(env, system, stream, RunOptions{.drain_grace = 120 * kSecond});

  // The post-storm state must audit clean in every build: the free-GPU index excludes
  // the dead GPUs and the router holds no instance that was lost to a fault.
  EXPECT_TRUE(SimulationAuditor::AuditAll(env.sim(), env.cluster(), {&system}).empty());

  StormOutcome out;
  out.submitted = report.submitted;
  out.completed = system.metrics().completed();
  out.events = env.sim().executed_events() - report.audit_events;
  out.stats = system.failure_stats();
  out.faults_fired = injector.faults_fired();
  out.gpus_lost = injector.gpus_lost();
  out.loss_times = injector.loss_times();
  out.completions = system.metrics().completions();
  out.kv_invalidated_tokens = system.kv_invalidated_tokens();
  out.leaked_masks = LeakedRecoveryMasks(system, specs);
  out.recovered = AnalyzeFailureRecovery(out.completions, out.loss_times,
                                         report.ran_until)
                      .recovered;
  return out;
}

FaultPlan ChurnPlan(const ExperimentEnvConfig& config, double fraction) {
  // Built against a throwaway cluster with the same config: topology shape (not
  // occupancy) determines the victim sample, so the plan transfers to the run's
  // cluster exactly.
  Cluster cluster(config.cluster);
  return FaultPlan::FleetChurn(10 * kSecond, 500 * kMillisecond, fraction, cluster, 99);
}

TEST(FaultStormTest, EmptyPlanIsBitIdenticalToNoInjector) {
  StormOutcome without = RunStorm(FaultRecoveryPolicy::kReform, false, FaultPlan{});
  StormOutcome with_empty = RunStorm(FaultRecoveryPolicy::kReform, true, FaultPlan{});

  EXPECT_EQ(with_empty.faults_fired, 0);
  EXPECT_EQ(with_empty.gpus_lost, 0);
  EXPECT_EQ(without.submitted, with_empty.submitted);
  EXPECT_EQ(without.completed, with_empty.completed);
  EXPECT_EQ(without.events, with_empty.events);
  ASSERT_EQ(without.completions.size(), with_empty.completions.size());
  for (size_t i = 0; i < without.completions.size(); ++i) {
    EXPECT_EQ(without.completions[i].done_time, with_empty.completions[i].done_time);
    EXPECT_EQ(without.completions[i].latency, with_empty.completions[i].latency);
  }
  EXPECT_EQ(without.stats.instances_lost, 0);
  EXPECT_EQ(with_empty.stats.instances_lost, 0);
}

TEST(FaultStormTest, StormReplayIsBitIdentical) {
  FaultPlan plan = ChurnPlan(SmallEnvConfig(), 0.4);
  StormOutcome first = RunStorm(FaultRecoveryPolicy::kReform, true, plan);
  StormOutcome second = RunStorm(FaultRecoveryPolicy::kReform, true, plan);

  EXPECT_GT(first.stats.instances_lost, 0);
  EXPECT_EQ(first.submitted, second.submitted);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.faults_fired, second.faults_fired);
  EXPECT_EQ(first.gpus_lost, second.gpus_lost);
  EXPECT_EQ(first.loss_times, second.loss_times);
  EXPECT_EQ(first.stats.instances_lost, second.stats.instances_lost);
  EXPECT_EQ(first.stats.requests_requeued, second.stats.requests_requeued);
  EXPECT_EQ(first.stats.requests_restarted, second.stats.requests_restarted);
  EXPECT_EQ(first.stats.requests_resumed, second.stats.requests_resumed);
  EXPECT_EQ(first.kv_invalidated_tokens, second.kv_invalidated_tokens);
  ASSERT_EQ(first.completions.size(), second.completions.size());
  for (size_t i = 0; i < first.completions.size(); ++i) {
    EXPECT_EQ(first.completions[i].done_time, second.completions[i].done_time);
    EXPECT_EQ(first.completions[i].latency, second.completions[i].latency);
  }
}

TEST(FaultStormTest, MidDecodeLossRequeuesExactlyOnceUnderReform) {
  StormOutcome out =
      RunStorm(FaultRecoveryPolicy::kReform, true, ChurnPlan(SmallEnvConfig(), 0.4));

  ASSERT_GT(out.stats.instances_lost, 0);
  EXPECT_GT(out.stats.requests_requeued, 0);
  // Exactly-once: every submitted request completes exactly once despite displacement —
  // a lost request would leave completed < submitted, a double-requeue would
  // double-complete and overshoot.
  EXPECT_EQ(out.completed, out.submitted);
  // Reform keeps decode progress: nothing restarts from token zero, and every resumed
  // request carries an Eq. 10 all-invalid mask over its regenerated context.
  EXPECT_EQ(out.stats.requests_restarted, 0);
  if (out.stats.requests_resumed > 0) {
    EXPECT_GT(out.kv_invalidated_tokens, 0);
  }
  EXPECT_EQ(out.leaked_masks, 0);
  EXPECT_TRUE(out.recovered);
}

TEST(FaultStormTest, GpuLossDuringRefactorCutoverRequeuesLimboExactlyOnce) {
  // GPUs die while a refactor wave's MigrationSession holds requests in limbo: its
  // source has halted and handed its requests over, and the delta transfer to the target
  // is still in flight. OnGpusLost must abort every session touching a victim (the
  // surviving endpoints and the sessions sharing their targets too), reclaim the limbo
  // requests, and requeue each displaced request exactly once with its decode progress
  // intact.
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeConfig config = SmallFlexPipeConfig();
  config.control_interval = 250 * kMillisecond;
  // A reserve fleet of three two-stage instances, and a queue-pressure threshold low
  // enough that the burst splits them: their six stage slots map onto one 16-stage
  // target, so all three sessions share it and killing one source must chase the
  // abort through that target to every sibling.
  config.initial_stages = 2;
  config.target_peak_rps = 1000.0;
  config.scaling.q_max = 32;
  FlexPipeSystem system(env.Context(), &env.ladder(0), config);
  Simulation& sim = env.sim();
  Router& router = system.router();

  // A calm phase, then a burst: the split wave runs while requests are mid-decode.
  WorkloadGenerator gen;
  Rng rng(5);
  std::vector<RequestSpec> stable = gen.GenerateWithCv(rng, 4.0, 0.5, 40 * kSecond);
  std::vector<RequestSpec> bursty = gen.GenerateWithCv(rng, 40.0, 6.0, 60 * kSecond);
  for (RequestSpec& spec : bursty) {
    spec.arrival += 40 * kSecond;
  }
  std::vector<RequestSpec> specs = MergeWorkloads({stable, bursty});
  // Driven by hand rather than by the streaming runner, so every Request outlives the
  // run and its progress can be checked afterwards.
  std::deque<Request> requests;
  int64_t arrived = 0;
  system.Start();
  for (const RequestSpec& spec : specs) {
    Request& r = requests.emplace_back();
    r.spec = spec;
    sim.ScheduleAt(spec.arrival, [&system, &r, &arrived] {
      ++arrived;
      system.OnArrival(&r);
    });
  }

  auto held = [](const PipelineInstance* inst) { return inst->inflight() + inst->pending(); };
  // Requests the system holds outside the router queue and every instance: only a
  // migration session's limbo (nothing is shed or draining in this run).
  auto in_limbo = [&] {
    int64_t placed = router.queue_length();
    for (const PipelineInstance* inst : router.instances()) {
      placed += held(inst);
    }
    return arrived - system.metrics().completed() - placed;
  };

  const TimeNs horizon = specs.back().arrival + 180 * kSecond;
  int64_t limbo = 0;
  TimeNs kill_time = -1;
  std::map<RequestId, TimeNs> first_tokens;  // progress made before the kill
  std::function<void()> watch = [&] {
    // A halted, emptied, unreleased source is inside its cutover: a session with no
    // delta to ship finishes (and releases its source) in the halt event itself.
    PipelineInstance* source = nullptr;
    bool halting = false;
    for (PipelineInstance* inst : router.instances()) {
      if (inst->state() == InstanceState::kHalting) {
        halting = true;
        source = held(inst) == 0 ? inst : source;
      }
    }
    if (source == nullptr) {
      // Poll coarsely until a wave halts a source, then finer than any delta transfer.
      if (sim.now() < horizon) {
        sim.Schedule(halting ? 5 * kMicrosecond : kMillisecond, watch);
      }
      return;
    }
    kill_time = sim.now();
    limbo = in_limbo();
    for (const Request& r : requests) {
      if (r.first_token_time >= 0) {
        first_tokens[r.spec.id] = r.first_token_time;
      }
    }
    std::map<int, int> held_before;
    for (const PipelineInstance* inst : router.instances()) {
      held_before[inst->id()] = held(inst);
    }
    int64_t requeued_before = system.failure_stats().requests_requeued;

    std::vector<GpuId> lost = source->gpus();
    std::sort(lost.begin(), lost.end());
    lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
    for (GpuId g : lost) {
      env.cluster().SetGpuFailed(g);
    }
    system.OnGpusLost(lost);

    // Every request on a failed instance and every limbo request is requeued, once.
    int64_t displaced = 0;
    for (const auto& [id, count] : held_before) {
      bool failed = std::none_of(router.instances().begin(), router.instances().end(),
                                 [id = id](const PipelineInstance* i) { return i->id() == id; });
      displaced += failed ? count : 0;
    }
    EXPECT_EQ(system.failure_stats().requests_requeued - requeued_before, limbo + displaced);
    EXPECT_EQ(in_limbo(), 0) << "an aborted session kept requests in limbo";
  };
  sim.Schedule(kMillisecond, watch);

  sim.RunUntil(horizon);
  system.Finish();
  sim.RunUntilIdle();

  ASSERT_GE(kill_time, 0) << "no refactor wave reached its cutover";
  EXPECT_GT(limbo, 0);
  // The source, the shared target, and the sibling sessions' sources.
  EXPECT_GT(system.failure_stats().instances_lost, 2);
  EXPECT_EQ(arrived, static_cast<int64_t>(specs.size()));
  EXPECT_EQ(system.metrics().completed(), arrived);
  EXPECT_EQ(std::count_if(requests.begin(), requests.end(),
                          [](const Request& r) { return !r.done(); }),
            0);
  // Reform keeps decode progress through the abort: nothing restarts from token zero,
  // so every first token produced before the kill still stands.
  EXPECT_EQ(system.failure_stats().requests_restarted, 0);
  for (const Request& r : requests) {
    auto it = first_tokens.find(r.spec.id);
    if (it != first_tokens.end()) {
      EXPECT_EQ(r.first_token_time, it->second) << "request " << r.spec.id;
    }
  }
  EXPECT_EQ(LeakedRecoveryMasks(system, specs), 0);
  EXPECT_TRUE(SimulationAuditor::AuditAll(sim, env.cluster(), {&system}).empty());
}

TEST(RefactorWaveTest, PartialPlacementKeepsPlannedFanIn) {
  // A reserve fleet of 17 four-stage instances fills most of the cluster, so the merge
  // wave at 45 s plans 34 two-stage targets but finds room for one. A merge plans one
  // source per target, so however few targets launch, no more sources may migrate than
  // targets launched; the surplus sources keep serving at four stages instead of all 17
  // (68 stage slots) collapsing onto the one two-stage target.
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeConfig config = SmallFlexPipeConfig();
  config.control_interval = 250 * kMillisecond;
  config.target_peak_rps = 10000.0;
  FlexPipeSystem system(env.Context(), &env.ladder(0), config);
  Simulation& sim = env.sim();

  WorkloadGenerator gen;
  Rng rng(5);
  std::vector<RequestSpec> stable = gen.GenerateWithCv(rng, 4.0, 0.5, 40 * kSecond);
  std::vector<RequestSpec> bursty = gen.GenerateWithCv(rng, 8.0, 6.0, 60 * kSecond);
  for (RequestSpec& spec : bursty) {
    spec.arrival += 40 * kSecond;
  }
  std::vector<RequestSpec> specs = MergeWorkloads({stable, bursty});
  std::deque<Request> requests;
  system.Start();
  for (const RequestSpec& spec : specs) {
    Request& r = requests.emplace_back();
    r.spec = spec;
    sim.ScheduleAt(spec.arrival, [&system, &r] { system.OnArrival(&r); });
  }

  // While the controller holds two stages, every finished session is a merge onto a
  // two-stage instance.
  std::set<int> two_stage;  // every two-stage instance seen: targets and scale-ups
  int64_t worst_fold = 0;   // finished sessions beyond one per two-stage instance
  int left_serving = -1;    // four-stage instances active when the controller moves on
  bool merging = false;
  PeriodicTask watch(&sim, kMillisecond, [&] {
    if (system.current_stages() == 2) {
      merging = true;
      for (const PipelineInstance* inst : system.router().instances()) {
        if (inst->num_stages() == 2) {
          two_stage.insert(inst->id());
        }
      }
      int64_t targets = static_cast<int64_t>(two_stage.size());
      worst_fold = std::max(worst_fold, system.refactor_count() - targets);
    } else if (merging && left_serving < 0) {
      left_serving = 0;
      for (const PipelineInstance* inst : system.router().instances()) {
        if (inst->num_stages() == 4 && inst->state() == InstanceState::kActive) {
          ++left_serving;
        }
      }
    }
  });
  sim.RunUntil(specs.back().arrival + 60 * kSecond);
  watch.Cancel();
  system.Finish();
  sim.RunUntilIdle();

  ASSERT_TRUE(merging) << "the controller never chose two stages";
  EXPECT_GT(system.refactor_count(), 0);
  EXPECT_EQ(worst_fold, 0) << "a merge wave folded several sources onto one target";
  EXPECT_GT(left_serving, 0) << "no source was left serving at its old granularity";
  EXPECT_TRUE(SimulationAuditor::AuditAll(sim, env.cluster(), {&system}).empty());
}

TEST(FaultStormTest, TeardownPolicyRestartsInsteadOfResuming) {
  StormOutcome out =
      RunStorm(FaultRecoveryPolicy::kTeardown, true, ChurnPlan(SmallEnvConfig(), 0.4));

  ASSERT_GT(out.stats.instances_lost, 0);
  EXPECT_GT(out.stats.requests_requeued, 0);
  EXPECT_EQ(out.completed, out.submitted);
  // The PipeBoost-style baseline drops progress wholesale: no KV is ever resumed.
  EXPECT_EQ(out.stats.requests_resumed, 0);
  EXPECT_EQ(out.kv_invalidated_tokens, 0);
}

TEST(FaultStormTest, PartitionHealRestoresRoutability) {
  // Quarantine half the racks mid-run; every partition heals 8 seconds later.
  ExperimentEnvConfig env_config = SmallEnvConfig();
  FaultPlan plan;
  for (RackId rack = 0; rack < 3; ++rack) {
    FaultPlan p = FaultPlan::RackPartition(10 * kSecond + rack * kSecond, rack,
                                           8 * kSecond);
    plan.events.insert(plan.events.end(), p.events.begin(), p.events.end());
  }

  ExperimentEnv env(env_config);
  FlexPipeSystem system(env.Context(), &env.ladder(0), SmallFlexPipeConfig());
  FaultInjector injector(&env.sim(), &env.cluster());
  injector.AddGpuLossListener(
      [&system](const std::vector<GpuId>& lost) { system.OnGpusLost(lost); });
  injector.Arm(plan);

  std::vector<RequestSpec> specs = StormWorkload();
  VectorRequestStream stream(specs);
  StreamingRunReport report =
      RunStreamingWorkload(env, system, stream, RunOptions{.drain_grace = 120 * kSecond});

  EXPECT_EQ(injector.faults_fired(), 6);  // 3 partitions + 3 heals
  EXPECT_GT(system.failure_stats().instances_lost, 0);
  // Partitions are temporary: nothing is dead and the whole cluster is routable again.
  EXPECT_EQ(env.cluster().failed_gpu_count(), 0);
  for (RackId rack = 0; rack < env.cluster().rack_count(); ++rack) {
    EXPECT_TRUE(env.cluster().RackReachable(rack));
  }
  for (GpuId g = 0; g < env.cluster().gpu_count(); ++g) {
    EXPECT_TRUE(env.cluster().GpuUsable(g));
  }
  // Routability after the heal: the drained system completed the full workload.
  EXPECT_EQ(system.metrics().completed(), report.submitted);
  EXPECT_TRUE(SimulationAuditor::AuditAll(env.sim(), env.cluster(), {&system}).empty());
}

TEST(FaultStormTest, PartitionDuringChurnStormComposesCleanly) {
  // Fault plans are data, so storms compose by concatenation: a rack partitions (and
  // later heals) in the middle of a rolling churn that may kill servers inside the
  // quarantined rack. Exactly-once accounting must survive the overlap.
  FaultPlan plan = ChurnPlan(SmallEnvConfig(), 0.3);
  FaultPlan partition = FaultPlan::RackPartition(11 * kSecond, /*rack=*/0, 6 * kSecond);
  plan.events.insert(plan.events.end(), partition.events.begin(), partition.events.end());

  StormOutcome first = RunStorm(FaultRecoveryPolicy::kReform, true, plan);
  StormOutcome second = RunStorm(FaultRecoveryPolicy::kReform, true, plan);

  ASSERT_GT(first.stats.instances_lost, 0);
  EXPECT_EQ(first.completed, first.submitted);
  EXPECT_EQ(first.stats.requests_restarted, 0);
  // The composed storm replays bit-identically, overlap and all.
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.loss_times, second.loss_times);
  EXPECT_EQ(first.completed, second.completed);
}

TEST(FaultStormTest, UnhealedPartitionAtHorizonStillDrainsEverything) {
  // The heal is scheduled far past the run horizon, so it never fires — the partition
  // is effectively permanent for this run. That must not strand requests: the
  // quarantined capacity was evacuated at fault time, so the drain completes from the
  // surviving racks alone (the documented heal-past-horizon contract).
  FaultPlan plan = FaultPlan::RackPartition(10 * kSecond, /*rack=*/0,
                                            /*heal_after=*/100000 * kSecond);
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeSystem system(env.Context(), &env.ladder(0), SmallFlexPipeConfig());
  FaultInjector injector(&env.sim(), &env.cluster());
  injector.AddGpuLossListener(
      [&system](const std::vector<GpuId>& lost) { system.OnGpusLost(lost); });
  injector.Arm(plan);

  std::vector<RequestSpec> specs = StormWorkload();
  VectorRequestStream stream(specs);
  StreamingRunReport report =
      RunStreamingWorkload(env, system, stream, RunOptions{.drain_grace = 120 * kSecond});

  EXPECT_EQ(injector.faults_fired(), 1);  // the heal never fired
  EXPECT_FALSE(env.cluster().RackReachable(0));
  EXPECT_EQ(system.metrics().completed(), report.submitted);
  EXPECT_TRUE(SimulationAuditor::AuditAll(env.sim(), env.cluster(), {&system}).empty());
}

TEST(FaultStormTest, BrownoutShedsLowPriorityTrafficUnderTotalCapacityLoss) {
  // Every power domain trips at t=10s and heals 40s later: the fleet floor is
  // unreachable for the whole outage, so brownout admission control must shed the
  // lower priority classes while class 0 queues for the eventual relaunch.
  ExperimentEnvConfig env_config = SmallEnvConfig();
  ExperimentEnv env(env_config);
  FlexPipeConfig fconfig = SmallFlexPipeConfig();
  fconfig.enable_brownout = true;
  FlexPipeSystem system(env.Context(), &env.ladder(0), fconfig);
  FaultInjector injector(&env.sim(), &env.cluster());
  injector.AddGpuLossListener(
      [&system](const std::vector<GpuId>& lost) { system.OnGpusLost(lost); });
  FaultPlan plan;
  for (PowerDomainId d = 0; d < env.cluster().power_domain_count(); ++d) {
    FaultPlan p = FaultPlan::PowerDomainOutage(10 * kSecond, d, env.cluster(),
                                               /*heal_after=*/40 * kSecond);
    plan.events.insert(plan.events.end(), p.events.begin(), p.events.end());
  }
  injector.Arm(plan);

  std::vector<RequestSpec> specs = StormWorkload();
  VectorRequestStream stream(specs);
  StreamingRunReport report =
      RunStreamingWorkload(env, system, stream, RunOptions{.drain_grace = 120 * kSecond});

  const ServingSystemBase::FailureStats& stats = system.failure_stats();
  // The outage took whole pipelines (every stage GPU unusable at once).
  EXPECT_GT(stats.instances_lost, 0);
  EXPECT_GT(stats.whole_pipeline_losses, 0);
  // Brownout shed some arrivals but never class 0, and the balance still closes
  // exactly: every submitted request either completed or was shed, nothing stranded.
  EXPECT_GT(stats.requests_shed, 0);
  EXPECT_LT(stats.requests_shed, report.submitted);
  EXPECT_EQ(system.metrics().completed() + stats.requests_shed, report.submitted);
  EXPECT_TRUE(SimulationAuditor::AuditAll(env.sim(), env.cluster(), {&system}).empty());
}

// -- Fail-slow (gray) faults --------------------------------------------------------------

TEST(FaultPlanTest, FailSlowBuilderShapes) {
  FaultPlan slow = FaultPlan::GpuSlowdown(5 * kSecond, /*server=*/3, 0.4, 10 * kSecond);
  ASSERT_EQ(slow.events.size(), 2u);
  EXPECT_EQ(slow.events[0].kind, FaultKind::kGpuSlowdown);
  EXPECT_EQ(slow.events[0].target, 3);
  EXPECT_EQ(slow.events[0].magnitude, 0.4);
  EXPECT_EQ(slow.events[1].when, 15 * kSecond);
  EXPECT_EQ(slow.events[1].magnitude, 1.0);  // recovery = the same kind at nominal

  // recover_after <= 0: the degradation never clears.
  EXPECT_EQ(FaultPlan::GpuSlowdown(5 * kSecond, 3, 0.4).events.size(), 1u);
  EXPECT_EQ(FaultPlan::LinkDegrade(5 * kSecond, 3, 0.2).events.size(), 1u);

  FaultPlan link = FaultPlan::LinkDegrade(5 * kSecond, /*server=*/7, 0.2, 3 * kSecond);
  ASSERT_EQ(link.events.size(), 2u);
  EXPECT_EQ(link.events[0].kind, FaultKind::kServerLinkDegrade);
  EXPECT_EQ(link.events[0].magnitude, 0.2);
  EXPECT_EQ(link.events[1].when, 8 * kSecond);

  // The rack variant is ONE event (atomic, like the power-domain outage).
  FaultPlan rack = FaultPlan::RackLinkDegrade(5 * kSecond, /*rack=*/1, 0.5, 3 * kSecond);
  ASSERT_EQ(rack.events.size(), 2u);
  EXPECT_EQ(rack.events[0].kind, FaultKind::kRackLinkDegrade);
  EXPECT_EQ(rack.events[0].target, 1);
}

TEST(FaultPlanTest, ThrottleWaveIsSeededAndRecoversPerInfection) {
  Cluster cluster(EvalClusterConfig());
  const ThermalZoneId seed_zone = cluster.thermal_zone_count() / 2;

  FaultPlan a = FaultPlan::ThrottleWave(5 * kSecond, seed_zone, cluster, 0.4, 0.7,
                                        2 * kSecond, 8 * kSecond, 20 * kSecond, 17);
  FaultPlan b = FaultPlan::ThrottleWave(5 * kSecond, seed_zone, cluster, 0.4, 0.7,
                                        2 * kSecond, 8 * kSecond, 20 * kSecond, 17);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].when, b.events[i].when);
    EXPECT_EQ(a.events[i].kind, FaultKind::kGpuSlowdown);  // nothing ever dies
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].magnitude, b.events[i].magnitude);
  }

  // Every infected server throttles once and recovers exactly 20s after its own
  // infection time (not the wave start) — rolling recovery, like rolling onset.
  std::map<int32_t, TimeNs> throttled_at;
  for (const FaultEvent& e : a.events) {
    if (e.magnitude != 1.0) {
      EXPECT_EQ(e.magnitude, 0.4);
      EXPECT_EQ(throttled_at.count(e.target), 0u);  // at most one throttle per server
      throttled_at[e.target] = e.when;
    }
  }
  EXPECT_FALSE(throttled_at.empty());
  for (const FaultEvent& e : a.events) {
    if (e.magnitude == 1.0) {
      ASSERT_EQ(throttled_at.count(e.target), 1u);
      EXPECT_EQ(e.when, throttled_at[e.target] + 20 * kSecond);
    }
  }
  // The seed zone throttles at the wave start regardless of the spread draws.
  for (ServerId s : cluster.ThermalZoneServers(seed_zone)) {
    ASSERT_EQ(throttled_at.count(s), 1u);
    EXPECT_EQ(throttled_at[s], 5 * kSecond);
  }
}

TEST(ClusterFaultTest, DegradeFiresNoLossListenerAndRestoresCleanly) {
  Simulation sim;
  Cluster cluster(EvalClusterConfig());
  FaultInjector injector(&sim, &cluster);
  int loss_calls = 0;
  injector.AddGpuLossListener(
      [&loss_calls](const std::vector<GpuId>&) { ++loss_calls; });

  FaultPlan plan = FaultPlan::GpuSlowdown(kSecond, /*server=*/0, 0.4, 2 * kSecond);
  FaultPlan link = FaultPlan::LinkDegrade(kSecond, /*server=*/1, 0.2, 4 * kSecond);
  plan.events.insert(plan.events.end(), link.events.begin(), link.events.end());
  injector.Arm(plan);
  sim.RunUntil(1500 * kMillisecond);

  // Mid-degradation: both servers are slower but every GPU is still usable — the
  // defining property of a gray failure — and no loss listener ever fired.
  EXPECT_EQ(loss_calls, 0);
  EXPECT_EQ(cluster.failed_gpu_count(), 0);
  EXPECT_EQ(cluster.ServerPerf(0), 0.4);
  EXPECT_EQ(cluster.ServerLinkFactor(1), 0.2);
  EXPECT_TRUE(cluster.ServerDegraded(0));
  EXPECT_TRUE(cluster.ServerDegraded(1));
  EXPECT_TRUE(cluster.AnyDegraded());
  EXPECT_EQ(cluster.degraded_server_count(), 2);
  EXPECT_TRUE(SimulationAuditor::AuditPerfState(cluster).empty());

  sim.RunUntilIdle();
  // Both recoveries landed: factors back to exactly 1.0 and the cached degraded
  // count back to zero, so the one-branch AnyDegraded guard is false again.
  EXPECT_EQ(loss_calls, 0);
  EXPECT_EQ(cluster.ServerPerf(0), 1.0);
  EXPECT_EQ(cluster.ServerLinkFactor(1), 1.0);
  EXPECT_FALSE(cluster.AnyDegraded());
  EXPECT_EQ(injector.degrade_times().size(), 2u);  // restores are not degrade events
  EXPECT_TRUE(SimulationAuditor::AuditPerfState(cluster).empty());
}

TEST(ClusterFaultTest, SlowdownComposesWithFailStopFaults) {
  // Slowdown-while-down: a server throttles, then its rack partitions, heals, and the
  // throttle clears last. Fail-slow state must ride through the fail-stop transitions
  // without leaking into either the failure accounting or the perf-state audit.
  Simulation sim;
  Cluster cluster(EvalClusterConfig());
  const RackId rack = 0;
  ServerId victim = kInvalidServer;
  for (ServerId s : cluster.rack(rack).servers) {
    if (!cluster.server(s).gpus.empty()) {
      victim = s;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidServer);

  FaultPlan plan = FaultPlan::GpuSlowdown(kSecond, victim, 0.5, 8 * kSecond);
  FaultPlan part = FaultPlan::RackPartition(2 * kSecond, rack, 3 * kSecond);
  plan.events.insert(plan.events.end(), part.events.begin(), part.events.end());
  // Heal-then-throttle on a second server: degradation arriving after a heal.
  FaultPlan late = FaultPlan::GpuSlowdown(6 * kSecond, victim + 1, 0.5, 10 * kSecond);
  plan.events.insert(plan.events.end(), late.events.begin(), late.events.end());

  FaultInjector injector(&sim, &cluster);
  injector.Arm(plan);
  sim.RunUntil(5500 * kMillisecond);

  // Post-heal, pre-clear: the partition lifted but the throttle is still live.
  EXPECT_TRUE(cluster.RackReachable(rack));
  EXPECT_TRUE(cluster.ServerDegraded(victim));
  for (GpuId g : cluster.server(victim).gpus) {
    EXPECT_TRUE(cluster.GpuUsable(g));
  }
  EXPECT_TRUE(SimulationAuditor::AuditPerfState(cluster).empty());

  sim.RunUntilIdle();
  EXPECT_FALSE(cluster.AnyDegraded());
  EXPECT_EQ(cluster.failed_gpu_count(), 0);
  // Two degradation episodes never overlapped... unless they did: victim cleared at
  // 9s, victim+1 degraded at 6s — overlapping, so ONE episode spans 1s..16s.
  ASSERT_EQ(injector.degradation_episodes().size(), 1u);
  EXPECT_EQ(injector.degradation_episodes()[0].start, kSecond);
  EXPECT_EQ(injector.degradation_episodes()[0].clear, 16 * kSecond);
  EXPECT_TRUE(SimulationAuditor::AuditPerfState(cluster).empty());
}

TEST(ClusterFaultTest, DegradationEpisodesSplitWhenCountReturnsToZero) {
  Simulation sim;
  Cluster cluster(EvalClusterConfig());
  FaultInjector injector(&sim, &cluster);
  FaultPlan plan = FaultPlan::GpuSlowdown(kSecond, 0, 0.4, kSecond);
  FaultPlan second = FaultPlan::LinkDegrade(5 * kSecond, 1, 0.2);  // never clears
  plan.events.insert(plan.events.end(), second.events.begin(), second.events.end());
  injector.Arm(plan);
  sim.RunUntilIdle();

  ASSERT_EQ(injector.degradation_episodes().size(), 2u);
  EXPECT_EQ(injector.degradation_episodes()[0].start, kSecond);
  EXPECT_EQ(injector.degradation_episodes()[0].clear, 2 * kSecond);
  EXPECT_EQ(injector.degradation_episodes()[1].start, 5 * kSecond);
  EXPECT_EQ(injector.degradation_episodes()[1].clear, 0);  // open at end of run
  EXPECT_TRUE(cluster.AnyDegraded());
}

TEST(FaultStormTest, ThrottleWaveStormDrainsAndReplaysBitIdentically) {
  // End-to-end: a rolling throttle wave with health monitoring + mitigation enabled.
  // Requests displaced by proactive evacuations must still complete exactly once, and
  // the whole run must replay bit-identically at the same seed.
  ExperimentEnvConfig env_config = SmallEnvConfig();
  FaultPlan wave;
  {
    Cluster shape(env_config.cluster);
    wave = FaultPlan::ThrottleWave(10 * kSecond, shape.thermal_zone_count() / 2, shape,
                                   /*multiplier=*/0.12, /*spread_factor=*/1.0,
                                   /*spread_interval=*/2 * kSecond,
                                   /*quench_after=*/4 * kSecond,
                                   /*recover_after=*/60 * kSecond, /*seed=*/17);
  }
  ASSERT_FALSE(wave.empty());

  auto run = [&]() {
    ExperimentEnv env(env_config);
    FlexPipeConfig fconfig = SmallFlexPipeConfig();
    fconfig.fault_recovery = FaultRecoveryPolicy::kReform;
    fconfig.health.enabled = true;
    fconfig.health.hysteresis_windows = 2;
    fconfig.health.reprobe_interval = 5 * kSecond;
    FlexPipeSystem system(env.Context(), &env.ladder(0), fconfig);
    FaultInjector injector(&env.sim(), &env.cluster());
    injector.AddGpuLossListener(
        [&system](const std::vector<GpuId>& lost) { system.OnGpusLost(lost); });
    injector.Arm(wave);

    std::vector<RequestSpec> specs = StormWorkload();
    VectorRequestStream stream(specs);
    StreamingRunReport report = RunStreamingWorkload(
        env, system, stream, RunOptions{.drain_grace = 180 * kSecond});
    EXPECT_TRUE(SimulationAuditor::AuditAll(env.sim(), env.cluster(), {&system}).empty());

    StormOutcome out;
    out.submitted = report.submitted;
    out.completed = system.metrics().completed();
    out.events = env.sim().executed_events() - report.audit_events;
    out.stats = system.failure_stats();
    out.completions = system.metrics().completions();
    EXPECT_GT(system.health_monitor()->flags_raised(), 0);
    EXPECT_EQ(out.submitted, out.completed);  // gray faults lose nothing
    // Evacuations go through the reform path: a resumed request is charged an Eq. 10
    // mask (and only resumed requests are: nothing here dies fail-stop), and every mask
    // is dropped once its request completes. At this seed the one evacuation hits an
    // idle instance, so both counts are zero.
    EXPECT_GT(system.health_migrations(), 0);
    EXPECT_EQ(out.stats.requests_resumed > 0, system.kv_invalidated_tokens() > 0);
    EXPECT_EQ(LeakedRecoveryMasks(system, specs), 0);
    return out;
  };

  StormOutcome first = run();
  StormOutcome second = run();
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.stats.requests_requeued, second.stats.requests_requeued);
  ASSERT_EQ(first.completions.size(), second.completions.size());
  for (size_t i = 0; i < first.completions.size(); ++i) {
    EXPECT_EQ(first.completions[i].done_time, second.completions[i].done_time);
    EXPECT_EQ(first.completions[i].latency, second.completions[i].latency);
  }
}

TEST(FaultStormTest, BrownoutOffShedsNothing) {
  // Same storm, brownout disabled (the default): no request is ever refused, so the
  // whole workload completes after the heal — the opt-in flag gates all shedding.
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeSystem system(env.Context(), &env.ladder(0), SmallFlexPipeConfig());
  FaultInjector injector(&env.sim(), &env.cluster());
  injector.AddGpuLossListener(
      [&system](const std::vector<GpuId>& lost) { system.OnGpusLost(lost); });
  FaultPlan plan;
  for (PowerDomainId d = 0; d < env.cluster().power_domain_count(); ++d) {
    FaultPlan p = FaultPlan::PowerDomainOutage(10 * kSecond, d, env.cluster(),
                                               /*heal_after=*/40 * kSecond);
    plan.events.insert(plan.events.end(), p.events.begin(), p.events.end());
  }
  injector.Arm(plan);

  std::vector<RequestSpec> specs = StormWorkload();
  VectorRequestStream stream(specs);
  StreamingRunReport report =
      RunStreamingWorkload(env, system, stream, RunOptions{.drain_grace = 120 * kSecond});

  EXPECT_EQ(system.failure_stats().requests_shed, 0);
  EXPECT_EQ(system.metrics().completed(), report.submitted);
}

}  // namespace

}  // namespace flexpipe
