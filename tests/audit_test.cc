// Simulation-auditor tests: clean state must audit clean (including mid-run, while a
// live system is mutating everything), and every corruption the test seeds must be
// detected by the matching invariant family.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/topology.h"
#include "src/core/experiment.h"
#include "src/core/flexpipe_system.h"
#include "src/runtime/request.h"
#include "src/runtime/router.h"
#include "src/sim/auditor.h"
#include "src/sim/simulation.h"

namespace flexpipe {
namespace {

bool AnyMentions(const AuditReport& report, const std::string& needle) {
  return std::any_of(report.begin(), report.end(), [&](const std::string& v) {
    return v.find(needle) != std::string::npos;
  });
}

// -- Event arena ------------------------------------------------------------------------

TEST(ArenaAudit, CleanUnderScheduleCancelChurn) {
  Simulation sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sim.Schedule(static_cast<TimeNs>(i) * kMillisecond, [] {}));
  }
  // Far-future events outlive the first drain below; cancels hit near and far entries.
  for (int i = 0; i < 64; ++i) {
    ids.push_back(sim.Schedule(10 * kSecond + static_cast<TimeNs>(i) * kSecond, [] {}));
  }
  for (size_t i = 0; i < ids.size(); i += 3) {
    sim.Cancel(ids[i]);
  }
  EXPECT_TRUE(SimulationAuditor::AuditArena(sim).empty());

  sim.RunUntil(15 * kSecond);  // partially drained: live heap entries and free slots coexist
  EXPECT_TRUE(SimulationAuditor::AuditArena(sim).empty());

  sim.RunUntilIdle();
  EXPECT_TRUE(SimulationAuditor::AuditArena(sim).empty());
}

TEST(ArenaAudit, DetectsLeakedSlot) {
  Simulation sim;
  sim.Schedule(1 * kMillisecond, [] {});
  ASSERT_TRUE(SimulationAuditor::AuditArena(sim).empty());

  SimulationAuditor::TestOnlyLeakArenaSlot(&sim);
  AuditReport report = SimulationAuditor::AuditArena(sim);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(AnyMentions(report, "leaked"));
}

// -- Free-GPU bucket index --------------------------------------------------------------

TEST(FreeIndexAudit, CleanThroughReserveReleaseChurn) {
  Cluster cluster(EvalClusterConfig());
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());

  cluster.gpu(0).Reserve(GiB(10), 0.3);
  cluster.gpu(5).Reserve(GiB(35), 0.5);  // crosses several bucket boundaries
  cluster.gpu(9).SetBackground(GiB(20), 0.4, 2);
  cluster.gpu(0).Release(GiB(10), 0.3);
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
}

TEST(FreeIndexAudit, DetectsStaleServerMaximum) {
  Cluster cluster(EvalClusterConfig());
  SimulationAuditor::TestOnlyCorruptBucketIndex(&cluster, 3);
  AuditReport report = SimulationAuditor::AuditFreeGpuIndex(cluster);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(AnyMentions(report, "server 3"));
}

TEST(FreeIndexAudit, CleanThroughFaultChurn) {
  // The real fault path re-derives every cached maximum: failures and partitions must
  // never leave the index counting an unusable GPU.
  Cluster cluster(EvalClusterConfig());
  cluster.gpu(2).Reserve(GiB(8), 0.2);
  cluster.SetGpuFailed(2);
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
  cluster.SetServerFailed(cluster.ServerOf(5));
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
  cluster.SetRackReachable(1, false);
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
  cluster.SetRackReachable(1, true);
  EXPECT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());
}

TEST(FreeIndexAudit, DetectsIndexStillCountingDeadGpu) {
  Cluster cluster(EvalClusterConfig());
  // Make GPU 0 its server's unique free-memory maximum, so skipping the re-index after
  // its death leaves the cached maximum attributable to the dead GPU alone.
  const ServerId server = cluster.ServerOf(0);
  for (GpuId g : cluster.server(server).gpus) {
    if (g != 0) {
      cluster.gpu(g).Reserve(GiB(4), 0.1);
    }
  }
  ASSERT_TRUE(SimulationAuditor::AuditFreeGpuIndex(cluster).empty());

  SimulationAuditor::TestOnlyFailGpuWithoutReindex(&cluster, 0);
  AuditReport report = SimulationAuditor::AuditFreeGpuIndex(cluster);
  ASSERT_FALSE(report.empty());
  // The detector names the failure mode, not just a generic stale maximum.
  EXPECT_TRUE(AnyMentions(report, "failed/partitioned GPU"));
}

// -- Fail-slow perf state ---------------------------------------------------------------

TEST(PerfStateAudit, CleanThroughDegradeAndRestoreChurn) {
  Cluster cluster(EvalClusterConfig());
  EXPECT_TRUE(SimulationAuditor::AuditPerfState(cluster).empty());

  cluster.SetServerPerf(0, 0.4);
  cluster.SetServerLinkFactor(1, 0.2);
  cluster.SetServerPerf(1, 0.5);  // server 1 now degraded on both axes
  EXPECT_TRUE(SimulationAuditor::AuditPerfState(cluster).empty());
  EXPECT_EQ(cluster.degraded_server_count(), 2);

  // Partial restore: server 1 still degraded through its link factor.
  cluster.SetServerPerf(1, 1.0);
  EXPECT_TRUE(SimulationAuditor::AuditPerfState(cluster).empty());
  EXPECT_EQ(cluster.degraded_server_count(), 2);

  cluster.SetServerPerf(0, 1.0);
  cluster.SetServerLinkFactor(1, 1.0);
  EXPECT_TRUE(SimulationAuditor::AuditPerfState(cluster).empty());
  EXPECT_FALSE(cluster.AnyDegraded());
}

TEST(PerfStateAudit, DetectsStaleDegradedCount) {
  // A perf factor written without going through SetServerPerf leaves the cached
  // degraded count stale — the one-branch AnyDegraded guard would then skip live
  // degradation pricing entirely. The audit must name that failure mode.
  Cluster cluster(EvalClusterConfig());
  SimulationAuditor::TestOnlyCorruptPerfState(&cluster, /*server=*/3);
  AuditReport report = SimulationAuditor::AuditPerfState(cluster);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(AnyMentions(report, "stale count"));

  // The composite AuditAll sweep surfaces it too (debug builds run this live).
  Simulation sim;
  AuditReport all = SimulationAuditor::AuditAll(sim, cluster, {});
  EXPECT_TRUE(AnyMentions(all, "stale count"));
}

// -- Router -----------------------------------------------------------------------------

TEST(RouterAudit, DetectsQueueModelMismatch) {
  Simulation sim;
  Router router(&sim);
  Request a;
  a.spec.id = 1;
  a.spec.model_index = 0;
  Request b;
  b.spec.id = 2;
  b.spec.model_index = 0;
  router.Submit(&a);  // no instances registered: both wait in model 0's queue
  router.Submit(&b);
  ASSERT_TRUE(SimulationAuditor::AuditRouter(router).empty());

  Request stray;
  stray.spec.id = 3;
  stray.spec.model_index = 0;
  SimulationAuditor::TestOnlyMisrouteQueuedRequest(&router, &stray, /*wrong_model=*/7);
  AuditReport report = SimulationAuditor::AuditRouter(router);
  // The helper keeps the incremental counters consistent, so exactly the mismatch
  // detector fires — proving the finding is attributed to the right invariant.
  ASSERT_EQ(report.size(), 1u);
  EXPECT_TRUE(AnyMentions(report, "sits in model 7"));
}

// -- Serving system / registry / HRG ----------------------------------------------------

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

std::vector<RequestSpec> SmallWorkload(double rate, double cv, TimeNs duration) {
  WorkloadGenerator::Config wconfig;
  wconfig.lengths.prompt_median = 256;
  wconfig.lengths.output_median = 16;
  WorkloadGenerator gen(wconfig);
  Rng rng(3);
  return gen.GenerateWithCv(rng, rate, cv, duration);
}

TEST(SystemAudit, PeriodicAuditorPassesThroughLiveWorkload) {
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeSystem system(env.Context(), &env.ladder(0), SmallFlexPipeConfig());
  // Audits every 500ms of virtual time while the system provisions, routes, scales
  // and refactors — a violation anywhere mid-run aborts the test.
  PeriodicSimulationAuditor auditor(&env.sim(), &env.cluster(), {&system},
                                    500 * kMillisecond);

  std::vector<RequestSpec> specs = SmallWorkload(4.0, 4.0, 30 * kSecond);
  VectorRequestStream stream(specs);
  RunStreamingWorkload(env, system, stream, RunOptions{.drain_grace = 60 * kSecond});

  EXPECT_GT(auditor.audits_run(), 0);
  std::vector<std::string> report;
  system.CollectAuditViolations(&report);
  EXPECT_TRUE(report.empty());
  EXPECT_TRUE(SimulationAuditor::AuditAll(env.sim(), env.cluster(), {&system}).empty());
}

TEST(SystemAudit, DetectsPhantomRegistryEntry) {
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeSystem system(env.Context(), &env.ladder(0), SmallFlexPipeConfig());
  system.Start();
  env.sim().RunUntil(5 * kSecond);  // let the initial fleet provision and load
  std::vector<std::string> clean;
  system.CollectAuditViolations(&clean);
  ASSERT_TRUE(clean.empty());

  SimulationAuditor::TestOnlyCorruptRegistry(&system, /*gpu=*/0, /*model_id=*/999);
  std::vector<std::string> report;
  system.CollectAuditViolations(&report);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(AnyMentions(report, "model 999"));

  // AuditAll prefixes system findings with the system's name.
  AuditReport all = SimulationAuditor::AuditAll(env.sim(), env.cluster(), {&system});
  ASSERT_FALSE(all.empty());
  EXPECT_TRUE(AnyMentions(all, "[" + system.name() + "]"));
}

// -- Failure domains ---------------------------------------------------------------------

TEST(FailureDomainAudit, DetectsZombieInstanceOnDeadCapacity) {
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeSystem system(env.Context(), &env.ladder(0), SmallFlexPipeConfig());
  system.Start();
  env.sim().RunUntil(5 * kSecond);  // initial fleet is live
  ASSERT_TRUE(
      SimulationAuditor::AuditFailureDomains(env.cluster(), system).empty());

  // Quarantine every rack behind the system's back — no injector, so OnGpusLost never
  // runs and nothing fails the stranded instances. Every unreleased instance now
  // stands entirely on unusable GPUs: exactly the zombie state recovery must prevent.
  for (RackId r = 0; r < env.cluster().rack_count(); ++r) {
    env.cluster().SetRackReachable(r, false);
  }
  AuditReport report = SimulationAuditor::AuditFailureDomains(env.cluster(), system);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(AnyMentions(report, "zombie"));
  // The full audit surfaces it too (CollectAuditViolations includes the domain check).
  std::vector<std::string> collected;
  system.CollectAuditViolations(&collected);
  EXPECT_TRUE(AnyMentions(collected, "zombie"));

  // Healing the racks clears the finding without any other repair.
  for (RackId r = 0; r < env.cluster().rack_count(); ++r) {
    env.cluster().SetRackReachable(r, true);
  }
  EXPECT_TRUE(
      SimulationAuditor::AuditFailureDomains(env.cluster(), system).empty());
}

TEST(FailureDomainAudit, DetectsDeadServerStillAdvertisingCapacity) {
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeSystem system(env.Context(), &env.ladder(0), SmallFlexPipeConfig());
  system.Start();
  env.sim().RunUntil(5 * kSecond);
  ASSERT_TRUE(
      SimulationAuditor::AuditFailureDomains(env.cluster(), system).empty());

  // Kill every GPU on one server without the re-index the real fault path performs:
  // the server is entirely dead yet still advertises free capacity to placement.
  ServerId victim = kInvalidServer;
  for (ServerId s = 0; s < env.cluster().server_count(); ++s) {
    if (!env.cluster().server(s).gpus.empty() && env.cluster().server_max_free(s) > 0) {
      victim = s;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidServer);
  for (GpuId g : env.cluster().server(victim).gpus) {
    SimulationAuditor::TestOnlyFailGpuWithoutReindex(&env.cluster(), g);
  }
  AuditReport report = SimulationAuditor::AuditFailureDomains(env.cluster(), system);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(AnyMentions(report, "advertises"));
}

}  // namespace
}  // namespace flexpipe
