// Correlated-failure-domain bench: power-feed outages and cascading thermal storms
// against recovery-aware placement and degraded-mode serving.
//
// Two correlated storms hit the 1024-GPU production deployment mid-traffic: the
// busiest power domain trips (every rack behind the feed partitions in one atomic
// event, breakers reset a branch at a time), and a thermal runaway cascades outward
// from the busiest thermal zone until cooling quenches it. Each storm runs under a
// 2x2 of policies: failure-domain spread placement on/off (the recovery-aware
// domain_spread_weight term) x reform/teardown recovery — eight independent universes
// on the parallel sweep driver, all with brownout admission control enabled.
//
// The claims gated here and by CI: spread placement strictly reduces whole-pipeline
// losses (instances with no surviving stage to re-form from), reform dominates
// teardown on time-to-recover and goodput-dip area under correlated loss too, and the
// zero-loss drain contract holds with brownout in the accounting (submitted ==
// completed + shed after the drain, nothing stuck live). Deterministic at a fixed
// seed: victims are argmax-by-reserved-bytes picks with id tie-breaks evaluated just
// before impact, and the cascade schedule derives from a dedicated seeded stream. Each
// arm runs on the shared storm harness (bench/storm.h).
#include <algorithm>
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
  // Same shape as fig15: a power domain is 1/16 of the cluster and the cascade can
  // take a handful of zones; the signal is the climb back, not queueing collapse.
  StormShape shape;
  TimeNs outage_heal = 25 * kSecond;    // power-domain outage: first breaker reset
  TimeNs outage_stagger = 5 * kSecond;  // per-rack reset spacing
  TimeNs cascade_quench = 0;            // thermal cascade: cooling kicks in
};

StormParams ParamsFor(bool ci) {
  StormParams p;
  p.shape = StormShapeFor(ci);
  // A shorter quench at 1/8 scale: the same cascade span would eat a third of the
  // cluster and measure queueing collapse instead of recovery.
  p.cascade_quench = (ci ? 6 : 10) * kSecond;
  return p;
}

enum class Storm { kPowerOutage, kThermalCascade };

const char* StormName(Storm storm) {
  return storm == Storm::kPowerOutage ? "power_outage" : "thermal_cascade";
}

// Deterministic impact-maximising victim picks, evaluated at fault time so they see
// the actual placement: argmax of serving-reserved bytes with an id tie-break.
PowerDomainId BusiestPowerDomain(const Cluster& cluster) {
  std::vector<Bytes> reserved(static_cast<size_t>(cluster.power_domain_count()), 0);
  for (GpuId g = 0; g < cluster.gpu_count(); ++g) {
    PowerDomainId d = cluster.PowerDomainOf(cluster.ServerOf(g));
    reserved[static_cast<size_t>(d)] += cluster.gpu(g).reserved_memory();
  }
  PowerDomainId best = 0;
  for (PowerDomainId d = 1; d < cluster.power_domain_count(); ++d) {
    if (reserved[static_cast<size_t>(d)] > reserved[static_cast<size_t>(best)]) {
      best = d;
    }
  }
  return best;
}

// One (storm, spread, policy) universe. Never prints (sweep-arm contract).
ArmResult RunStormArm(const StormParams& params, Storm storm, double spread_weight,
                      FaultRecoveryPolicy policy) {
  FlexPipeConfig config;
  config.fault_recovery = policy;
  config.placement.domain_spread_weight = spread_weight;
  // Degraded-mode serving under capacity loss: all arms run with brownout on, so the
  // drain contract is submitted == completed + shed.
  config.enable_brownout = true;
  StormArm arm(params.shape, config);
  switch (storm) {
    case Storm::kPowerOutage:
      arm.ArmBeforeImpact([&params](const Cluster& cluster, TimeNs fault_time) {
        return FaultPlan::PowerDomainOutage(fault_time, BusiestPowerDomain(cluster), cluster,
                                            params.outage_heal, params.outage_stagger);
      });
      break;
    case Storm::kThermalCascade:
      arm.ArmBeforeImpact([&params](const Cluster& cluster, TimeNs fault_time) {
        return FaultPlan::ThermalCascade(fault_time, BusiestThermalZone(cluster), cluster,
                                         /*spread_factor=*/0.8, /*spread_interval=*/2 * kSecond,
                                         params.cascade_quench, kSeed);
      });
      break;
  }
  arm.Run();

  const StormLedger& ledger = arm.ledger();
  const FailureRecoveryReport& recovery = arm.recovery();
  const ServingSystemBase::FailureStats& stats = arm.system().failure_stats();
  const std::string prefix = std::string(StormName(storm)) + "_" +
                             (spread_weight > 0.0 ? "spread" : "packed") + "_" +
                             PolicyName(policy) + "_";
  ArmResult result;
  result.metrics = {
      {prefix + "submitted", static_cast<double>(ledger.submitted)},
      {prefix + "completed", static_cast<double>(ledger.completed)},
      {prefix + "shed", static_cast<double>(ledger.shed)},
      {prefix + "requests_lost", static_cast<double>(ledger.lost)},
      {prefix + "stuck_live", static_cast<double>(ledger.stuck)},
      {prefix + "instances_lost", static_cast<double>(stats.instances_lost)},
      {prefix + "whole_pipeline_losses", static_cast<double>(stats.whole_pipeline_losses)},
      {prefix + "gpus_lost", static_cast<double>(arm.injector().gpus_lost())},
      {prefix + "requeued", static_cast<double>(stats.requests_requeued)},
      {prefix + "resumed", static_cast<double>(stats.requests_resumed)},
      {prefix + "restarted", static_cast<double>(stats.requests_restarted)},
      {prefix + "pre_fault_rps", recovery.pre_fault_goodput_rps},
      {prefix + "time_to_recover_s", recovery.time_to_recover_s},
      {prefix + "dip_depth_rps", recovery.dip_depth_rps},
      {prefix + "dip_area_rps_s", recovery.dip_area_rps_s},
      {prefix + "recovered", recovery.recovered ? 1.0 : 0.0},
      {prefix + "shed_rate", recovery.shed_rate},
      {prefix + "domain_survivability", recovery.domain_survivability},
  };
  result.exit_code =
      (ledger.clean() && stats.instances_lost > 0 && recovery.fault_count > 0) ? 0 : 1;
  return result;
}

int Run(BenchReporter& reporter) {
  const StormParams params = ParamsFor(StressScaleIsCi());
  // Strong enough to pull stages out of one rack against the topology bonuses; 0
  // must reproduce the packed default bit-identically (pinned by placement_test).
  const double kSpreadWeight = 2.0;

  PrintHeader("Fig. 16: correlated failure domains — spread placement and brownout",
              "power/thermal domain storms on the production deployment "
              "(robustness extension)");
  std::printf("scale=%s: %d racks, %d power domains, brownout on, CV=2 arrivals\n\n",
              params.shape.scale_name, params.shape.cluster.racks,
              (params.shape.cluster.racks + params.shape.cluster.racks_per_power_domain - 1) /
                  params.shape.cluster.racks_per_power_domain);

  const std::vector<Storm> storms = {Storm::kPowerOutage, Storm::kThermalCascade};
  const std::vector<double> spreads = {kSpreadWeight, 0.0};
  const std::vector<FaultRecoveryPolicy> policies = {FaultRecoveryPolicy::kReform,
                                                     FaultRecoveryPolicy::kTeardown};
  std::vector<SweepArm> arms;
  for (Storm storm : storms) {
    for (double spread : spreads) {
      for (FaultRecoveryPolicy policy : policies) {
        std::string name = std::string(StormName(storm)) + "/" +
                           (spread > 0.0 ? "spread" : "packed") + "/" +
                           PolicyName(policy);
        arms.push_back({name, [&params, storm, spread, policy] {
                          return RunStormArm(params, storm, spread, policy);
                        }});
      }
    }
  }
  ParallelSweepRunner runner;
  std::vector<ArmResult> results = runner.Run(arms);

  TextTable table({"Storm", "Placement", "Policy", "Inst lost", "Whole", "Shed",
                   "TTR (s)", "Dip area", "Lost", "Stuck"});
  double reform_ttr = 0.0, teardown_ttr = 0.0;
  double reform_dip = 0.0, teardown_dip = 0.0;
  double spread_whole = 0.0, packed_whole = 0.0;
  double lost_total = 0.0, stuck_total = 0.0;
  double max_shed_fraction = 0.0;
  bool all_reform_recovered = true;
  int exit_code = 0;
  size_t arm_index = 0;
  for (Storm storm : storms) {
    for (double spread : spreads) {
      for (FaultRecoveryPolicy policy : policies) {
        const std::string prefix = std::string(StormName(storm)) + "_" +
                                   (spread > 0.0 ? "spread" : "packed") + "_" +
                                   PolicyName(policy) + "_";
        const double ttr = Metric(results, prefix + "time_to_recover_s");
        const double dip = Metric(results, prefix + "dip_area_rps_s");
        const double whole = Metric(results, prefix + "whole_pipeline_losses");
        const double lost = Metric(results, prefix + "requests_lost");
        const double stuck = Metric(results, prefix + "stuck_live");
        lost_total += lost;
        stuck_total += stuck;
        max_shed_fraction = std::max(max_shed_fraction, Metric(results, prefix + "shed_rate"));
        if (policy == FaultRecoveryPolicy::kReform) {
          reform_ttr += ttr;
          reform_dip += dip;
          all_reform_recovered =
              all_reform_recovered && Metric(results, prefix + "recovered") > 0.5;
        } else {
          teardown_ttr += ttr;
          teardown_dip += dip;
        }
        if (spread > 0.0) {
          spread_whole += whole;
        } else {
          packed_whole += whole;
        }
        exit_code |= results[arm_index].exit_code;
        ++arm_index;
        table.AddRow({StormName(storm), spread > 0.0 ? "spread" : "packed",
                      PolicyName(policy),
                      TextTable::Num(Metric(results, prefix + "instances_lost"), 0),
                      TextTable::Num(whole, 0),
                      TextTable::Num(Metric(results, prefix + "shed"), 0),
                      TextTable::Num(ttr, 1), TextTable::Num(dip, 0),
                      TextTable::Num(lost, 0), TextTable::Num(stuck, 0)});
      }
    }
  }
  table.Print();

  std::printf("\nwhole-pipeline losses: spread %.0f vs packed %.0f\n", spread_whole,
              packed_whole);
  std::printf("reform:   total TTR %.1fs, total dip area %.0f rps*s\n", reform_ttr,
              reform_dip);
  std::printf("teardown: total TTR %.1fs, total dip area %.0f rps*s\n", teardown_ttr,
              teardown_dip);
  std::printf("max shed fraction %.3f, lost %.0f, stuck %.0f\n", max_shed_fraction,
              lost_total, stuck_total);

  for (const ArmResult& result : results) {
    for (const auto& [name, value] : result.metrics) {
      reporter.Metric(name, value);
    }
  }
  reporter.Metric("spread_whole_losses_total", spread_whole);
  reporter.Metric("packed_whole_losses_total", packed_whole);
  reporter.Metric("reform_total_ttr_s", reform_ttr);
  reporter.Metric("teardown_total_ttr_s", teardown_ttr);
  reporter.Metric("reform_total_dip_area", reform_dip);
  reporter.Metric("teardown_total_dip_area", teardown_dip);
  reporter.Metric("requests_lost_total", lost_total);
  reporter.Metric("stuck_live_total", stuck_total);
  reporter.Metric("max_shed_fraction", max_shed_fraction);
  reporter.Metric("sweep_workers", static_cast<double>(runner.workers()));

  // The tentpole claims: spread placement strictly reduces whole-pipeline losses
  // under correlated faults, and re-formation still dominates teardown on both
  // recovery axes with every reform arm actually climbing back.
  if (!(spread_whole < packed_whole)) {
    std::printf("FAIL: spread placement did not reduce whole-pipeline losses "
                "(%.0f vs %.0f)\n",
                spread_whole, packed_whole);
    exit_code = 1;
  }
  if (!(reform_ttr <= teardown_ttr && reform_dip <= teardown_dip && all_reform_recovered)) {
    std::printf("FAIL: reform did not dominate teardown (recovered=%d)\n",
                all_reform_recovered ? 1 : 0);
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace

REGISTER_BENCH(fig16_correlated_storm,
               "Fig. 16: correlated domain storms — spread placement, brownout, recovery",
               Run);
