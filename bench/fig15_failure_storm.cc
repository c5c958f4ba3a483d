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
// Each arm runs on the shared storm harness (bench/storm.h). The contract checked here
// and by CI: zero requests lost (submitted == completed after the drain, nothing stuck
// live), every reform storm recovers, and reform beats teardown on both
// time-to-recover and goodput-dip area. Deterministic at a fixed seed: fault victims
// are either seeded draws or argmax-by-reservation picks with id tie-breaks.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/storm.h"
#include "bench/sweep.h"
#include "src/sim/faults.h"

namespace {

using namespace flexpipe;
using namespace flexpipe::bench;

struct StormParams {
  StormShape shape;
  TimeNs churn_spacing;  // server-death spacing in the fleet-churn storm
};

StormParams ParamsFor(bool ci) { return {StormShapeFor(ci), (ci ? 1 : 2) * kSecond}; }

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

// One (storm, policy) universe; recovery is analysed from the completion series and
// the injector's loss times. Never prints (sweep-arm contract).
ArmResult RunStormArm(const StormParams& params, Storm storm, FaultRecoveryPolicy policy) {
  FlexPipeConfig config;
  config.fault_recovery = policy;
  StormArm arm(params.shape, config);
  switch (storm) {
    case Storm::kSingleServer:
      arm.ArmBeforeImpact([](const Cluster& cluster, TimeNs fault_time) {
        return FaultPlan::SingleServer(fault_time, BusiestServer(cluster));
      });
      break;
    case Storm::kRackPartition:
      arm.ArmBeforeImpact([](const Cluster& cluster, TimeNs fault_time) {
        return FaultPlan::RackPartition(fault_time, BusiestRack(cluster),
                                        /*heal_after=*/20 * kSecond);
      });
      break;
    case Storm::kFleetChurn:
      arm.injector().Arm(FaultPlan::FleetChurn(params.shape.fault_time(), params.churn_spacing,
                                               /*fraction=*/0.10, arm.env().cluster(), kSeed));
      break;
  }
  arm.Run();

  const StormLedger& ledger = arm.ledger();
  const FailureRecoveryReport& recovery = arm.recovery();
  const ServingSystemBase::FailureStats& stats = arm.system().failure_stats();
  const std::string prefix = std::string(PolicyName(policy)) + "_" + StormName(storm) + "_";
  ArmResult result;
  result.metrics = {
      {prefix + "submitted", static_cast<double>(ledger.submitted)},
      {prefix + "completed", static_cast<double>(ledger.completed)},
      {prefix + "requests_lost", static_cast<double>(ledger.lost)},
      {prefix + "stuck_live", static_cast<double>(ledger.stuck)},
      {prefix + "instances_lost", static_cast<double>(stats.instances_lost)},
      {prefix + "gpus_lost", static_cast<double>(arm.injector().gpus_lost())},
      {prefix + "requeued", static_cast<double>(stats.requests_requeued)},
      {prefix + "resumed", static_cast<double>(stats.requests_resumed)},
      {prefix + "restarted", static_cast<double>(stats.requests_restarted)},
      {prefix + "kv_invalidated_tokens",
       static_cast<double>(arm.system().kv_invalidated_tokens())},
      {prefix + "pre_fault_rps", recovery.pre_fault_goodput_rps},
      {prefix + "time_to_recover_s", recovery.time_to_recover_s},
      {prefix + "dip_depth_rps", recovery.dip_depth_rps},
      {prefix + "dip_area_rps_s", recovery.dip_area_rps_s},
      {prefix + "recovered", recovery.recovered ? 1.0 : 0.0},
      {prefix + "goodput_rate", arm.system().metrics().GoodputRate(ledger.submitted)},
  };
  // Zero-loss is the hard contract: every fault-displaced request completes exactly
  // once. An instance must actually have died, or the storm tested nothing.
  result.exit_code =
      (ledger.clean() && stats.instances_lost > 0 && recovery.fault_count > 0) ? 0 : 1;
  return result;
}

int Run(BenchReporter& reporter) {
  const StormParams params = ParamsFor(StressScaleIsCi());

  PrintHeader("Fig. 15: failure storms and inflight pipeline recovery",
              "fault injection on the production deployment (robustness extension)");
  std::printf("scale=%s: %d racks, 10 Gbps cross-rack, 4-model mix, CV=2 arrivals\n\n",
              params.shape.scale_name, params.shape.cluster.racks);

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
