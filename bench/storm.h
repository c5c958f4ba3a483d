// Shared harness for the storm benches (fig15/16/17).
//
// A storm arm is one independent universe on the parallel sweep driver: the 4-model
// production mix served by one shared FlexPipe deployment, a FaultInjector wired to
// its GPU-loss path, and two phases chained through one WorkloadHarness — pre-storm
// steady state, then the storm window plus a long drain — sharing one request pool,
// so a request displaced by a fault in phase 2 recycles through the same accounting
// it was acquired under. After the drain the arm closes the exactly-once ledger and
// analyses recovery from the completion series. The benches differ only in their
// fault plans and victim picks, their FlexPipe knobs, their metrics and their gates.
#ifndef FLEXPIPE_BENCH_STORM_H_
#define FLEXPIPE_BENCH_STORM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "bench/sweep.h"
#include "src/sim/faults.h"

namespace flexpipe {
namespace bench {

inline const char* PolicyName(FaultRecoveryPolicy policy) {
  return policy == FaultRecoveryPolicy::kReform ? "reform" : "teardown";
}

// Deterministic impact-maximising victim picks, evaluated at fault time (see
// StormArm::ArmBeforeImpact) so they see the actual placement: argmax of
// serving-reserved bytes with an id tie-break.
inline RackId BusiestRack(const Cluster& cluster) {
  std::vector<Bytes> reserved(static_cast<size_t>(cluster.rack_count()), 0);
  for (GpuId g = 0; g < cluster.gpu_count(); ++g) {
    RackId rack = cluster.RackOf(cluster.ServerOf(g));
    reserved[static_cast<size_t>(rack)] += cluster.gpu(g).reserved_memory();
  }
  RackId best = 0;
  for (RackId r = 1; r < cluster.rack_count(); ++r) {
    if (reserved[static_cast<size_t>(r)] > reserved[static_cast<size_t>(best)]) {
      best = r;
    }
  }
  return best;
}

inline ThermalZoneId BusiestThermalZone(const Cluster& cluster) {
  std::vector<Bytes> reserved(static_cast<size_t>(cluster.thermal_zone_count()), 0);
  for (GpuId g = 0; g < cluster.gpu_count(); ++g) {
    ThermalZoneId z = cluster.ThermalZoneOf(cluster.ServerOf(g));
    reserved[static_cast<size_t>(z)] += cluster.gpu(g).reserved_memory();
  }
  ThermalZoneId best = 0;
  for (ThermalZoneId z = 1; z < cluster.thermal_zone_count(); ++z) {
    if (reserved[static_cast<size_t>(z)] > reserved[static_cast<size_t>(best)]) {
      best = z;
    }
  }
  return best;
}

// The first value reported under `name` by any arm, in arm order; 0 when none did.
inline double Metric(const std::vector<ArmResult>& results, const std::string& name) {
  for (const ArmResult& result : results) {
    for (const auto& [key, value] : result.metrics) {
      if (key == name) {
        return value;
      }
    }
  }
  return 0.0;
}

// The cluster, traffic and timeline every storm bench shares at one scale.
struct StormShape {
  const char* scale_name = "";
  ClusterConfig cluster;
  std::vector<double> qps;    // per EvaluationModels() entry
  TimeNs pre_duration = 0;    // phase 1: steady state before the storm
  TimeNs storm_duration = 0;  // phase 2: faults land and serving is measured
  TimeNs fault_offset = 0;    // first fault, relative to phase-2 start

  TimeNs storm_start() const { return kWarmup + pre_duration; }
  TimeNs fault_time() const { return storm_start() + fault_offset; }
};

// The 1024-GPU production deployment, or its 1/8 cut at FLEXPIPE_STRESS_SCALE=ci.
inline StormShape StormShapeFor(bool ci) {
  StormShape s;
  if (ci) {
    s.scale_name = "ci";
    s.cluster = StressCiClusterConfig();  // 128 GPUs / 56 servers
    s.qps = {40.0, 40.0, 26.0, 17.0};
    s.pre_duration = 30 * kSecond;
    s.storm_duration = 90 * kSecond;
    s.fault_offset = 10 * kSecond;
    return s;
  }
  s.scale_name = "full";
  s.cluster = StressClusterConfig();  // 1024 GPUs / 448 servers
  // ~65% of the stress_scale saturation mix: recovery needs headroom — a fleet serving
  // at its limit cannot absorb a 10% capacity loss no matter the recovery policy, and
  // the interesting signal is how fast each policy climbs back, not queueing collapse.
  s.qps = {200.0, 200.0, 130.0, 90.0};
  s.pre_duration = 60 * kSecond;
  s.storm_duration = 180 * kSecond;
  s.fault_offset = 15 * kSecond;
  return s;
}

// The exactly-once ledger after the drain: every submitted request completed, was
// shed by brownout admission (never, with brownout off), or is still live — `stuck`:
// the drain never finished it. A `lost` request is none of these: it vanished
// somewhere (double release, dropped requeue).
struct StormLedger {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t stuck = 0;
  int64_t lost = 0;

  bool clean() const { return lost == 0 && stuck == 0; }
};

// One storm universe. The constructor builds env -> system -> injector wired to
// OnGpusLost; the bench then arms its faults (on injector(), or via ArmBeforeImpact)
// and calls Run(). Never prints (sweep-arm contract).
class StormArm {
 public:
  // `base` carries the bench's FlexPipe knobs; see MakeSharedFlexPipe.
  StormArm(StormShape shape, const FlexPipeConfig& base)
      : shape_(std::move(shape)),
        models_(EvaluationModels()),
        env_(EnvConfig(shape_, models_)),
        system_(MakeSharedFlexPipe(env_, shape_.qps, base)),
        injector_(&env_.sim(), &env_.cluster()) {
    FlexPipeSystem* system = system_.get();
    injector_.AddGpuLossListener(
        [system](const std::vector<GpuId>& lost) { system->OnGpusLost(lost); });
  }
  StormArm(const StormArm&) = delete;
  StormArm& operator=(const StormArm&) = delete;

  // Arms the plan `make_plan(cluster, fault_time)` builds one millisecond before the
  // first fault, so its victim picks see the live placement.
  void ArmBeforeImpact(std::function<FaultPlan(const Cluster&, TimeNs)> make_plan) {
    const TimeNs fault_time = shape_.fault_time();
    auto arm = [this, fault_time, make_plan = std::move(make_plan)] {
      injector_.Arm(make_plan(env_.cluster(), fault_time));
    };
    env_.sim().ScheduleAt(fault_time - kMillisecond, std::move(arm));
  }

  // Runs both phases and the drain, then fills ledger() and recovery().
  void Run() {
    WorkloadHarness harness(env_, {system_.get()});
    // Phase 1: steady state. The horizon stops at the phase boundary with requests
    // still in flight — they carry over into the storm phase through the shared pool.
    MergedRequestStream pre_stream = MultiModelWorkloadStream(
        models_, shape_.qps, /*cv=*/2.0, shape_.pre_duration, kSeed);
    harness.RunPhase(pre_stream,
                     RunOptions{.horizon = shape_.storm_start(), .warmup = kWarmup});

    // Phase 2: the storm window plus drain, same pool, arrivals shifted past phase 1.
    MergedRequestStream storm_stream = MultiModelWorkloadStream(
        models_, shape_.qps, /*cv=*/2.0, shape_.storm_duration, kSeed + 1);
    // Generous drain: the teardown baseline cold-reloads whole fleets and must still
    // clear its backlog, or stuck-live requests would masquerade as losses.
    StreamingRunReport report = harness.RunPhase(
        storm_stream,
        RunOptions{.drain_grace = 900 * kSecond, .warmup = shape_.storm_start()});
    harness.Finish();

    const ServingSystemBase::FailureStats& stats = system_->failure_stats();
    ledger_.submitted = harness.total_submitted();
    ledger_.completed = system_->metrics().completed();
    ledger_.shed = stats.requests_shed;
    ledger_.stuck = static_cast<int64_t>(harness.pool().live());
    ledger_.lost = ledger_.submitted - ledger_.completed - ledger_.shed - ledger_.stuck;

    FailureImpact impact;
    impact.submitted = ledger_.submitted;
    impact.requests_shed = stats.requests_shed;
    impact.instances_lost = stats.instances_lost;
    impact.whole_pipeline_losses = stats.whole_pipeline_losses;
    for (const FaultInjector::DegradationEpisode& e : injector_.degradation_episodes()) {
      impact.degraded_spans.push_back({e.start, e.clear});
    }
    recovery_ = AnalyzeFailureRecovery(system_->metrics().completions(),
                                       injector_.loss_times(), report.ran_until, impact);
  }

  ExperimentEnv& env() { return env_; }
  FlexPipeSystem& system() { return *system_; }
  FaultInjector& injector() { return injector_; }
  const StormLedger& ledger() const { return ledger_; }
  const FailureRecoveryReport& recovery() const { return recovery_; }

 private:
  static ExperimentEnvConfig EnvConfig(const StormShape& shape,
                                       const std::vector<ModelSpec>& models) {
    ExperimentEnvConfig config = DefaultEnvConfig(models);
    config.cluster = shape.cluster;
    return config;
  }

  const StormShape shape_;
  const std::vector<ModelSpec> models_;
  ExperimentEnv env_;
  std::unique_ptr<FlexPipeSystem> system_;
  FaultInjector injector_;
  StormLedger ledger_;
  FailureRecoveryReport recovery_;
};

}  // namespace bench
}  // namespace flexpipe

#endif  // FLEXPIPE_BENCH_STORM_H_
