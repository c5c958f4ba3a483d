// Failure-storm bench: fault injection and inflight pipeline recovery at cluster scale.
//
// Three storms hit the 1024-GPU production deployment (the stress_scale cluster and
// model mix) mid-traffic: one whole server dies, one rack partitions and heals, and a
// rolling 10% of the fleet's servers churn away. Each storm runs twice — FlexPipe's
// migration-based re-formation (kReform: decode progress kept via KV recompute,
// relaunch at the fast fine granularity seeded from surviving stages) against the
// PipeBoost-style naive baseline (kTeardown: every instance of the affected model torn
// down, progress dropped, cold restart) — six independent universes on the parallel
// sweep driver.
//
// Each arm chains two phases through one WorkloadHarness (pre-storm steady state, then
// the storm window plus drain) sharing one request pool, so a request displaced by a
// fault in phase 2 recycles through the same accounting it was acquired under. The
// contract checked here and by CI: zero requests lost (submitted == completed after the
// drain, nothing stuck live), every reform storm recovers, and reform beats teardown on
// both time-to-recover and goodput-dip area. Deterministic at a fixed seed: fault
// victims are either seeded draws or argmax-by-reservation picks with id tie-breaks.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/sweep.h"
#include "src/sim/faults.h"

namespace {

using namespace flexpipe;
using namespace flexpipe::bench;

struct StormParams {
  const char* scale_name;
  ClusterConfig cluster;
  std::vector<double> qps;   // per EvaluationModels() entry
  TimeNs pre_duration;       // phase 1: steady state before the storm
  TimeNs storm_duration;     // phase 2: faults land and recovery is measured
  TimeNs fault_offset;       // first fault, relative to phase-2 start
  TimeNs churn_spacing;      // server-death spacing in the fleet-churn storm
};

StormParams FullScale() {
  StormParams p;
  p.scale_name = "full";
  p.cluster = StressClusterConfig();  // 1024 GPUs / 448 servers (bench/common.h)
  // ~65% of the stress_scale saturation mix: recovery needs headroom — a fleet serving
  // at its limit cannot absorb a 10% capacity loss no matter the recovery policy, and
  // the interesting signal is how fast each policy climbs back, not queueing collapse.
  p.qps = {200.0, 200.0, 130.0, 90.0};
  p.pre_duration = 60 * kSecond;
  p.storm_duration = 180 * kSecond;
  p.fault_offset = 15 * kSecond;
  p.churn_spacing = 2 * kSecond;
  return p;
}

StormParams CiScale() {
  StormParams p;
  p.scale_name = "ci";
  p.cluster = StressCiClusterConfig();  // 128 GPUs / 56 servers
  p.qps = {40.0, 40.0, 26.0, 17.0};
  p.pre_duration = 30 * kSecond;
  p.storm_duration = 90 * kSecond;
  p.fault_offset = 10 * kSecond;
  p.churn_spacing = 1 * kSecond;
  return p;
}

enum class Storm { kSingleServer, kRackPartition, kFleetChurn };

const char* StormName(Storm storm) {
  switch (storm) {
    case Storm::kSingleServer:
      return "single_server";
    case Storm::kRackPartition:
      return "rack_partition";
    case Storm::kFleetChurn:
      return "fleet_churn";
  }
  return "?";
}

// Deterministic impact-maximising victim picks, evaluated at fault time so they see
// the actual placement: argmax of serving-reserved bytes with an id tie-break.
ServerId BusiestServer(const Cluster& cluster) {
  ServerId best = 0;
  Bytes best_reserved = -1;
  for (ServerId s = 0; s < cluster.server_count(); ++s) {
    Bytes reserved = 0;
    for (GpuId g : cluster.server(s).gpus) {
      reserved += cluster.gpu(g).reserved_memory();
    }
    if (reserved > best_reserved) {
      best_reserved = reserved;
      best = s;
    }
  }
  return best;
}

std::unique_ptr<FlexPipeSystem> MakeFlexPipe(ExperimentEnv& env,
                                             const std::vector<double>& qps,
                                             FaultRecoveryPolicy policy) {
  std::vector<FlexPipeSystem::ModelDeployment> deployments;
  for (size_t i = 0; i < qps.size(); ++i) {
    FlexPipeSystem::ModelDeployment d;
    d.ladder = &env.ladder(static_cast<int>(i));
    d.config.model_id = static_cast<int>(i);
    d.config.initial_stages = d.ladder->coarsest();
    d.config.target_peak_rps = qps[i];
    d.config.default_slo = kDefaultSlo;
    d.config.scaling.reclaim_idle = 45 * kSecond;
    d.config.fault_recovery = policy;
    deployments.push_back(d);
  }
  return std::make_unique<FlexPipeSystem>(env.Context(), std::move(deployments));
}

// One (storm, policy) universe: fresh env, chained pre-storm + storm phases through a
// single WorkloadHarness, recovery analysed from the completion series and the
// injector's loss times. Never prints (sweep-arm contract).
ArmResult RunStormArm(const StormParams& params, Storm storm, FaultRecoveryPolicy policy) {
  const std::vector<ModelSpec> models = EvaluationModels();
  ExperimentEnvConfig env_config = DefaultEnvConfig(models);
  env_config.cluster = params.cluster;
  ExperimentEnv env(env_config);
  std::unique_ptr<FlexPipeSystem> system = MakeFlexPipe(env, params.qps, policy);

  FaultInjector injector(&env.sim(), &env.cluster());
  FlexPipeSystem* sys = system.get();
  injector.AddGpuLossListener(
      [sys](const std::vector<GpuId>& lost) { sys->OnGpusLost(lost); });

  const TimeNs storm_start = kWarmup + params.pre_duration;
  const TimeNs fault_time = storm_start + params.fault_offset;
  switch (storm) {
    case Storm::kSingleServer:
      // Victim chosen against the live placement just before impact.
      env.sim().ScheduleAt(fault_time - kMillisecond, [&env, &injector, fault_time] {
        injector.Arm(FaultPlan::SingleServer(fault_time, BusiestServer(env.cluster())));
      });
      break;
    case Storm::kRackPartition:
      env.sim().ScheduleAt(fault_time - kMillisecond, [&env, &injector, fault_time] {
        injector.Arm(FaultPlan::RackPartition(fault_time, BusiestRack(env.cluster()),
                                              /*heal_after=*/20 * kSecond));
      });
      break;
    case Storm::kFleetChurn:
      injector.Arm(FaultPlan::FleetChurn(fault_time, params.churn_spacing,
                                         /*fraction=*/0.10, env.cluster(), kSeed));
      break;
  }

  WorkloadHarness harness(env, {system.get()});
  // Phase 1: steady state. The horizon stops at the phase boundary with requests still
  // in flight — they carry over into the storm phase through the shared pool.
  MergedRequestStream pre_stream =
      MultiModelWorkloadStream(models, params.qps, /*cv=*/2.0, params.pre_duration, kSeed);
  harness.RunPhase(pre_stream, RunOptions{.horizon = storm_start, .warmup = kWarmup});

  // Phase 2: the storm window plus drain, same pool, arrivals shifted past phase 1.
  MergedRequestStream storm_stream = MultiModelWorkloadStream(
      models, params.qps, /*cv=*/2.0, params.storm_duration, kSeed + 1);
  // Generous drain: the teardown baseline cold-reloads whole fleets and must still
  // clear its backlog, or stuck-live requests would masquerade as losses.
  StreamingRunReport report = harness.RunPhase(
      storm_stream,
      RunOptions{.drain_grace = 900 * kSecond, .warmup = storm_start});
  harness.Finish();

  const MetricsCollector& m = system->metrics();
  const int64_t submitted = harness.total_submitted();
  const int64_t completed = m.completed();
  const int64_t stuck_live = static_cast<int64_t>(harness.pool().live());
  // Accounting loss: a request neither completed nor still alive vanished somewhere
  // (double-release, dropped requeue). Stuck-live means the drain never finished it.
  const int64_t lost = submitted - completed - stuck_live;
  const ServingSystemBase::FailureStats& stats = system->failure_stats();

  FailureRecoveryReport recovery =
      AnalyzeFailureRecovery(m.completions(), injector.loss_times(), report.ran_until);

  const std::string prefix = std::string(PolicyName(policy)) + "_" + StormName(storm) + "_";
  ArmResult result;
  result.metrics = {
      {prefix + "submitted", static_cast<double>(submitted)},
      {prefix + "completed", static_cast<double>(completed)},
      {prefix + "requests_lost", static_cast<double>(lost)},
      {prefix + "stuck_live", static_cast<double>(stuck_live)},
      {prefix + "instances_lost", static_cast<double>(stats.instances_lost)},
      {prefix + "gpus_lost", static_cast<double>(injector.gpus_lost())},
      {prefix + "requeued", static_cast<double>(stats.requests_requeued)},
      {prefix + "resumed", static_cast<double>(stats.requests_resumed)},
      {prefix + "restarted", static_cast<double>(stats.requests_restarted)},
      {prefix + "kv_invalidated_tokens", static_cast<double>(sys->kv_invalidated_tokens())},
      {prefix + "pre_fault_rps", recovery.pre_fault_goodput_rps},
      {prefix + "time_to_recover_s", recovery.time_to_recover_s},
      {prefix + "dip_depth_rps", recovery.dip_depth_rps},
      {prefix + "dip_area_rps_s", recovery.dip_area_rps_s},
      {prefix + "recovered", recovery.recovered ? 1.0 : 0.0},
      {prefix + "goodput_rate", m.GoodputRate(submitted)},
  };
  // Zero-loss is the hard contract: every fault-displaced request completes exactly
  // once. An instance must actually have died, or the storm tested nothing.
  result.exit_code =
      (lost == 0 && stuck_live == 0 && stats.instances_lost > 0 && recovery.fault_count > 0)
          ? 0
          : 1;
  return result;
}

int Run(BenchReporter& reporter) {
  const char* scale_env = std::getenv("FLEXPIPE_STRESS_SCALE");
  const bool ci = scale_env != nullptr && std::strcmp(scale_env, "ci") == 0;
  const StormParams params = ci ? CiScale() : FullScale();

  PrintHeader("Fig. 15: failure storms and inflight pipeline recovery",
              "fault injection on the production deployment (robustness extension)");
  std::printf("scale=%s: %d racks, 10 Gbps cross-rack, 4-model mix, CV=2 arrivals\n\n",
              params.scale_name, params.cluster.racks);

  const std::vector<Storm> storms = {Storm::kSingleServer, Storm::kRackPartition,
                                     Storm::kFleetChurn};
  const std::vector<FaultRecoveryPolicy> policies = {FaultRecoveryPolicy::kReform,
                                                     FaultRecoveryPolicy::kTeardown};
  std::vector<SweepArm> arms;
  for (Storm storm : storms) {
    for (FaultRecoveryPolicy policy : policies) {
      std::string name = std::string(StormName(storm)) + "/" + PolicyName(policy);
      arms.push_back({name, [&params, storm, policy] {
                        return RunStormArm(params, storm, policy);
                      }});
    }
  }
  ParallelSweepRunner runner;
  std::vector<ArmResult> results = runner.Run(arms);

  TextTable table({"Storm", "Policy", "Inst lost", "Requeued", "Resumed", "Restarted",
                   "TTR (s)", "Dip area", "Lost", "Stuck"});
  double reform_ttr = 0.0, teardown_ttr = 0.0;
  double reform_dip = 0.0, teardown_dip = 0.0;
  double lost_total = 0.0, stuck_total = 0.0;
  bool all_reform_recovered = true;
  int exit_code = 0;
  for (size_t i = 0; i < arms.size(); ++i) {
    const Storm storm = storms[i / policies.size()];
    const FaultRecoveryPolicy policy = policies[i % policies.size()];
    const std::string prefix =
        std::string(PolicyName(policy)) + "_" + StormName(storm) + "_";
    const double ttr = Metric(results, prefix + "time_to_recover_s");
    const double dip = Metric(results, prefix + "dip_area_rps_s");
    const double lost = Metric(results, prefix + "requests_lost");
    const double stuck = Metric(results, prefix + "stuck_live");
    lost_total += lost;
    stuck_total += stuck;
    if (policy == FaultRecoveryPolicy::kReform) {
      reform_ttr += ttr;
      reform_dip += dip;
      all_reform_recovered =
          all_reform_recovered && Metric(results, prefix + "recovered") > 0.5;
    } else {
      teardown_ttr += ttr;
      teardown_dip += dip;
    }
    exit_code |= results[i].exit_code;
    table.AddRow({StormName(storm), PolicyName(policy),
                  TextTable::Num(Metric(results, prefix + "instances_lost"), 0),
                  TextTable::Num(Metric(results, prefix + "requeued"), 0),
                  TextTable::Num(Metric(results, prefix + "resumed"), 0),
                  TextTable::Num(Metric(results, prefix + "restarted"), 0),
                  TextTable::Num(ttr, 1), TextTable::Num(dip, 0),
                  TextTable::Num(lost, 0), TextTable::Num(stuck, 0)});
  }
  table.Print();

  std::printf("\nreform:   total TTR %.1fs, total dip area %.0f rps*s\n", reform_ttr,
              reform_dip);
  std::printf("teardown: total TTR %.1fs, total dip area %.0f rps*s\n", teardown_ttr,
              teardown_dip);
  std::printf("requests lost %.0f, stuck after drain %.0f\n", lost_total, stuck_total);

  for (const ArmResult& result : results) {
    for (const auto& [name, value] : result.metrics) {
      reporter.Metric(name, value);
    }
  }
  reporter.Metric("reform_total_ttr_s", reform_ttr);
  reporter.Metric("teardown_total_ttr_s", teardown_ttr);
  reporter.Metric("reform_total_dip_area", reform_dip);
  reporter.Metric("teardown_total_dip_area", teardown_dip);
  reporter.Metric("requests_lost_total", lost_total);
  reporter.Metric("stuck_live_total", stuck_total);
  reporter.Metric("sweep_workers", static_cast<double>(runner.workers()));

  // The paper-level claim under test: re-formation strictly beats tear-down-and-replace
  // on both recovery axes, and every reform storm actually climbs back.
  if (!(reform_ttr <= teardown_ttr && reform_dip <= teardown_dip && all_reform_recovered)) {
    std::printf("FAIL: reform did not dominate teardown (recovered=%d)\n",
                all_reform_recovered ? 1 : 0);
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace

REGISTER_BENCH(fig15_failure_storm,
               "Fig. 15: failure storms — recovery via re-formation vs teardown", Run);
