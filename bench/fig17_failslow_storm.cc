// Fail-slow storm bench: gray failures, straggler detection, and health-driven
// proactive refactoring.
//
// Unlike fig15/fig16 nothing dies here: a rolling thermal-throttle wave slows the
// busiest zones' compute to a fraction of nominal, and a sick top-of-rack uplink
// degrades a whole rack's NICs — the hardware keeps serving, just slower, so no
// GPU-loss event ever fires and the fail-stop recovery machinery is blind by
// construction. Each storm runs under two policies on the parallel sweep driver:
//   mitigate — the HealthMonitor flags stragglers from observed/base busy ratios,
//              quarantines them out of the placer's candidate set, and FlexPipe
//              proactively reforms the stages standing on them onto healthy capacity
//              (KV progress intact via Eq. 10 recompute masks), readmitting servers
//              after clean re-probes once the throttle clears;
//   ignore   — detection runs (flags and detection latency are still measured) but
//              nothing is quarantined or migrated: the fleet limps on degraded
//              hardware until the fault clears on its own.
// A healthy pair (same policies, no faults) pins the false-positive baseline — the
// monitor's ratio is exactly 1.0 on healthy hardware, so zero flags is a
// deterministic contract, not a statistical hope — and provides the P99 denominator.
//
// The claims gated here and by CI: mitigation strictly beats ignoring on storm-window
// P99 inflation and goodput-dip area for the throttle storm, detection latency is
// bounded, healthy arms see zero flags and zero quarantines, and every arm drains
// with the exactly-once ledger intact (nothing lost, nothing stuck). Each arm runs on
// the shared storm harness (bench/storm.h).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/storm.h"
#include "bench/sweep.h"
#include "src/common/stats.h"
#include "src/sim/faults.h"

namespace {

using namespace flexpipe;
using namespace flexpipe::bench;

struct FailSlowParams {
  StormShape shape;
  TimeNs throttle_recover = 0;  // per-zone throttle clears this long after infection
  TimeNs link_recover = 0;      // rack uplink degradation clears after this
  TimeNs throttle_quench = 0;   // cooling stops the wave spreading
};

FailSlowParams ParamsFor(bool ci) {
  FailSlowParams p;
  p.shape = StormShapeFor(ci);
  if (ci) {
    // Persists past the storm window (see below): "ignore" limps for the whole
    // measurement; mitigation's one-time evacuation cost amortizes over it.
    p.throttle_recover = 200 * kSecond;
    p.link_recover = 50 * kSecond;
    // Shorter quench at 1/8 scale, same rationale as fig16's cascade: the wave should
    // degrade a measurable slice of the fleet, not most of it.
    p.throttle_quench = 4 * kSecond;
    return p;
  }
  // Below the saturation knee: a storm study needs headroom on the healthy
  // baseline, or queueing noise swamps the degradation signal.
  p.shape.qps = {120.0, 120.0, 80.0, 55.0};
  // Fail-slow faults do not self-heal on serving timescales — a cooked heatsink or
  // flapping optic stays sick until an operator swaps it. The throttle outlives the
  // measured storm window so "ignore" pays for the full storm; only the link
  // episode clears mid-run (exercises the clear path + degraded-span accounting).
  p.throttle_recover = 400 * kSecond;
  p.link_recover = 100 * kSecond;
  // 448 servers = 112 thermal zones: the wave needs more spread generations than
  // the 1/8-scale run to throttle a comparable fleet fraction.
  p.throttle_quench = 16 * kSecond;
  return p;
}

enum class Scenario { kThrottleWave, kLinkDegrade, kHealthy };

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kThrottleWave:
      return "throttle_wave";
    case Scenario::kLinkDegrade:
      return "link_degrade";
    case Scenario::kHealthy:
      return "healthy";
  }
  return "?";
}

// 0.12x compute under throttle (a clock-floored GPU, ~8x slower) -> observed/base
// ~8.3, far above the 1.25 flag threshold — and deep enough that limping through
// the throttle costs more than one round of proactive migrations. A mild throttle
// (0.4x and up) is the regime where *ignoring wins*: the router load-balances
// around slow instances, while an evacuation displaces every inflight request on
// the victim; the health stack is for faults past that break-even. 0.2x NIC
// bandwidth stretches inter-server activation hops 5x.
constexpr double kThrottleMultiplier = 0.12;
constexpr double kLinkFactor = 0.2;
constexpr TimeNs kDetectionBound = 20 * kSecond;

HealthConfig BenchHealthConfig(bool mitigate) {
  HealthConfig h;
  h.enabled = true;
  h.ewma_alpha = 0.5;
  h.straggler_ratio = 1.25;
  h.hysteresis_windows = 3;
  h.quarantine_strikes = 1;
  h.reprobe_interval = 10 * kSecond;
  h.readmit_probes = 2;
  h.mitigate = mitigate;
  // Sized to cover the whole throttle wave (≈3 zones) so every clock-floored
  // server is evacuated, while still refusing a fleet-scale wave — quarantining
  // past free healthy headroom turns evacuations into failed relaunches.
  h.max_quarantine_fraction = 0.25;
  return h;
}

// Storm-window P99 over a fixed span, so arms with different drain lengths compare
// the same interval.
double WindowP99(const std::vector<CompletionSample>& completions, TimeNs from,
                 TimeNs until) {
  std::vector<double> lat;
  for (const CompletionSample& c : completions) {
    if (c.done_time >= from && c.done_time < until) {
      lat.push_back(ToSeconds(c.latency));
    }
  }
  if (lat.empty()) {
    return 0.0;
  }
  return Percentile(std::move(lat), 99.0);
}

// One (scenario, policy) universe. Never prints (sweep-arm contract).
ArmResult RunFailSlowArm(const FailSlowParams& params, Scenario scenario, bool mitigate) {
  FlexPipeConfig config;
  config.fault_recovery = FaultRecoveryPolicy::kReform;
  config.health = BenchHealthConfig(mitigate);
  StormArm arm(params.shape, config);
  switch (scenario) {
    case Scenario::kThrottleWave:
      arm.ArmBeforeImpact([&params](const Cluster& cluster, TimeNs fault_time) {
        return FaultPlan::ThrottleWave(fault_time, BusiestThermalZone(cluster), cluster,
                                       kThrottleMultiplier, /*spread_factor=*/0.9,
                                       /*spread_interval=*/2 * kSecond, params.throttle_quench,
                                       params.throttle_recover, kSeed);
      });
      break;
    case Scenario::kLinkDegrade:
      arm.ArmBeforeImpact([&params](const Cluster& cluster, TimeNs fault_time) {
        return FaultPlan::RackLinkDegrade(fault_time, BusiestRack(cluster), kLinkFactor,
                                          params.link_recover);
      });
      break;
    case Scenario::kHealthy:
      break;  // detection runs against a clean fleet: the false-positive baseline
  }
  arm.Run();

  const StormLedger& ledger = arm.ledger();
  const FailureRecoveryReport& recovery = arm.recovery();
  const ServingSystemBase::FailureStats& stats = arm.system().failure_stats();
  const MetricsCollector& m = arm.system().metrics();
  const HealthMonitor* monitor = arm.system().health_monitor();
  const FaultInjector& injector = arm.injector();

  // Detection latency: first flag vs first degrading fire. -1 when nothing was
  // degraded or nothing was flagged (the aggregate gates tell those apart).
  double detection_s = -1.0;
  if (!injector.degrade_times().empty() && monitor->first_flag_time() >= 0) {
    detection_s = ToSeconds(monitor->first_flag_time() - injector.degrade_times().front());
  }
  const TimeNs storm_start = params.shape.storm_start();
  const double storm_p99 =
      WindowP99(m.completions(), storm_start, storm_start + params.shape.storm_duration);

  const std::string prefix = std::string(ScenarioName(scenario)) + "_" +
                             (mitigate ? "mitigate" : "ignore") + "_";
  ArmResult result;
  result.metrics = {
      {prefix + "submitted", static_cast<double>(ledger.submitted)},
      {prefix + "completed", static_cast<double>(ledger.completed)},
      {prefix + "requests_lost", static_cast<double>(ledger.lost)},
      {prefix + "stuck_live", static_cast<double>(ledger.stuck)},
      {prefix + "storm_p99_s", storm_p99},
      {prefix + "overall_p99_s", m.LatencyPercentileSec(99)},
      {prefix + "flags", static_cast<double>(monitor->flags_raised())},
      {prefix + "quarantines", static_cast<double>(monitor->quarantine_count())},
      {prefix + "readmissions", static_cast<double>(monitor->readmissions())},
      {prefix + "quarantined_now", static_cast<double>(monitor->quarantined_now())},
      {prefix + "health_migrations", static_cast<double>(arm.system().health_migrations())},
      {prefix + "detection_latency_s", detection_s},
      {prefix + "resumed", static_cast<double>(stats.requests_resumed)},
      {prefix + "requeued", static_cast<double>(stats.requests_requeued)},
      {prefix + "dip_area_rps_s", recovery.dip_area_rps_s},
      {prefix + "dip_depth_rps", recovery.dip_depth_rps},
      {prefix + "degraded_span_s", recovery.degraded_span_s},
      {prefix + "recovered", recovery.recovered ? 1.0 : 0.0},
  };
  // Per-arm contract: the exactly-once ledger drains clean. Everything
  // policy-comparative is gated in the aggregate below.
  result.exit_code = ledger.clean() ? 0 : 1;
  return result;
}

int Run(BenchReporter& reporter) {
  const FailSlowParams params = ParamsFor(StressScaleIsCi());

  PrintHeader("Fig. 17: fail-slow storms — straggler detection and proactive refactoring",
              "gray failures (thermal throttle waves, sick rack uplinks) on the "
              "production deployment (robustness extension)");
  std::printf("scale=%s: %d racks, throttle %.2fx, link %.2fx, CV=2 arrivals\n\n",
              params.shape.scale_name, params.shape.cluster.racks, kThrottleMultiplier,
              kLinkFactor);

  const std::vector<Scenario> scenarios = {Scenario::kThrottleWave,
                                           Scenario::kLinkDegrade, Scenario::kHealthy};
  std::vector<SweepArm> arms;
  for (Scenario scenario : scenarios) {
    for (bool mitigate : {true, false}) {
      std::string name = std::string(ScenarioName(scenario)) + "/" +
                         (mitigate ? "mitigate" : "ignore");
      arms.push_back({name, [&params, scenario, mitigate] {
                        return RunFailSlowArm(params, scenario, mitigate);
                      }});
    }
  }
  ParallelSweepRunner runner;
  std::vector<ArmResult> results = runner.Run(arms);

  TextTable table({"Scenario", "Policy", "Storm P99 (s)", "P99 infl", "Flags", "Quar",
                   "Readmit", "Migr", "Detect (s)", "Dip area", "Lost", "Stuck"});
  double lost_total = 0.0, stuck_total = 0.0;
  int exit_code = 0;
  size_t arm_index = 0;
  for (Scenario scenario : scenarios) {
    for (bool mitigate : {true, false}) {
      const std::string prefix = std::string(ScenarioName(scenario)) + "_" +
                                 (mitigate ? "mitigate" : "ignore") + "_";
      const std::string healthy_prefix =
          std::string("healthy_") + (mitigate ? "mitigate" : "ignore") + "_";
      const double p99 = Metric(results, prefix + "storm_p99_s");
      const double healthy_p99 = Metric(results, healthy_prefix + "storm_p99_s");
      const double inflation = healthy_p99 > 0.0 ? p99 / healthy_p99 : 0.0;
      const double lost = Metric(results, prefix + "requests_lost");
      const double stuck = Metric(results, prefix + "stuck_live");
      lost_total += lost;
      stuck_total += stuck;
      exit_code |= results[arm_index].exit_code;
      ++arm_index;
      reporter.Metric(prefix + "p99_inflation", inflation);
      table.AddRow({ScenarioName(scenario), mitigate ? "mitigate" : "ignore",
                    TextTable::Num(p99, 2), TextTable::Num(inflation, 2),
                    TextTable::Num(Metric(results, prefix + "flags"), 0),
                    TextTable::Num(Metric(results, prefix + "quarantines"), 0),
                    TextTable::Num(Metric(results, prefix + "readmissions"), 0),
                    TextTable::Num(Metric(results, prefix + "health_migrations"), 0),
                    TextTable::Num(Metric(results, prefix + "detection_latency_s"), 1),
                    TextTable::Num(Metric(results, prefix + "dip_area_rps_s"), 0),
                    TextTable::Num(lost, 0), TextTable::Num(stuck, 0)});
    }
  }
  table.Print();

  const double mit_inflation = Metric(results, "throttle_wave_mitigate_storm_p99_s") /
                               std::max(1e-9, Metric(results, "healthy_mitigate_storm_p99_s"));
  const double ign_inflation = Metric(results, "throttle_wave_ignore_storm_p99_s") /
                               std::max(1e-9, Metric(results, "healthy_ignore_storm_p99_s"));
  const double mit_dip = Metric(results, "throttle_wave_mitigate_dip_area_rps_s");
  const double ign_dip = Metric(results, "throttle_wave_ignore_dip_area_rps_s");
  const double mit_detect = Metric(results, "throttle_wave_mitigate_detection_latency_s");
  const double ign_detect = Metric(results, "throttle_wave_ignore_detection_latency_s");
  const double healthy_flags = Metric(results, "healthy_mitigate_flags") +
                               Metric(results, "healthy_ignore_flags");
  const double healthy_quarantines = Metric(results, "healthy_mitigate_quarantines") +
                                     Metric(results, "healthy_ignore_quarantines");

  std::printf("\nthrottle wave: P99 inflation mitigate %.2fx vs ignore %.2fx\n",
              mit_inflation, ign_inflation);
  std::printf("throttle wave: dip area mitigate %.0f vs ignore %.0f rps*s\n", mit_dip,
              ign_dip);
  std::printf("detection latency: mitigate %.1fs, ignore %.1fs (bound %.0fs)\n",
              mit_detect, ign_detect, ToSeconds(kDetectionBound));
  std::printf("healthy arms: %.0f flags, %.0f quarantines (must be exactly zero)\n",
              healthy_flags, healthy_quarantines);

  for (const ArmResult& result : results) {
    for (const auto& [name, value] : result.metrics) {
      reporter.Metric(name, value);
    }
  }
  reporter.Metric("throttle_mitigate_p99_inflation", mit_inflation);
  reporter.Metric("throttle_ignore_p99_inflation", ign_inflation);
  reporter.Metric("max_detection_latency_s", std::max(mit_detect, ign_detect));
  reporter.Metric("healthy_flags_total", healthy_flags);
  reporter.Metric("healthy_quarantines_total", healthy_quarantines);
  reporter.Metric("requests_lost_total", lost_total);
  reporter.Metric("stuck_live_total", stuck_total);
  reporter.Metric("sweep_workers", static_cast<double>(runner.workers()));

  // The tentpole claims, in gate form.
  if (!(mit_inflation < ign_inflation && mit_dip < ign_dip)) {
    std::printf("FAIL: mitigation did not strictly beat ignoring "
                "(inflation %.2f vs %.2f, dip %.0f vs %.0f)\n",
                mit_inflation, ign_inflation, mit_dip, ign_dip);
    exit_code = 1;
  }
  if (!(mit_detect >= 0.0 && mit_detect <= ToSeconds(kDetectionBound) &&
        ign_detect >= 0.0 && ign_detect <= ToSeconds(kDetectionBound))) {
    std::printf("FAIL: throttle-wave detection latency out of bounds "
                "(mitigate %.1fs, ignore %.1fs)\n",
                mit_detect, ign_detect);
    exit_code = 1;
  }
  if (healthy_flags != 0.0 || healthy_quarantines != 0.0) {
    std::printf("FAIL: false positives on a healthy fleet (%.0f flags, %.0f "
                "quarantines)\n",
                healthy_flags, healthy_quarantines);
    exit_code = 1;
  }
  if (!(Metric(results, "throttle_wave_mitigate_health_migrations") > 0.0 &&
        Metric(results, "throttle_wave_mitigate_quarantines") > 0.0)) {
    std::printf("FAIL: mitigation arm never quarantined or migrated\n");
    exit_code = 1;
  }
  if (lost_total != 0.0 || stuck_total != 0.0) {
    std::printf("FAIL: ledger violation (lost %.0f, stuck %.0f)\n", lost_total,
                stuck_total);
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace

REGISTER_BENCH(fig17_failslow_storm,
               "Fig. 17: fail-slow storms — straggler detection, quarantine, proactive reform",
               Run);
