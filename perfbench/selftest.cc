// Self-tests of the benchmark's probes: timing changes no simulated result.
//
//   perfbench_selftest        (or: ctest --test-dir <build dir>)
//
// Each test serves a real workload replica twice and compares the simulated outcome
// exactly. Exits non-zero on the first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/sim/faults.h"

namespace {

using namespace flexpipe;
using namespace perfbench;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

// Everything a serving run produces that a probe could perturb.
struct Outcome {
  std::vector<CompletionSample> completions;
  uint64_t events = 0;
  int64_t submitted = 0;
  int64_t refactors = 0;
  Bytes kv_migrated = 0;
  int64_t requeued = 0;
  int instances_lost = 0;
  int health_flags = 0;
  int64_t health_migrations = 0;
  double slot_seconds = 0.0;
};

// Serves one fault_storm replica. With `probed`, every timing decorator the benchmark
// uses is installed and armed: the stream span, the OnArrival/Start overrides with an
// arrival span, and the timed GPU-loss listener. Without, the plain library types.
Outcome Serve(uint64_t seed, bool probed, Span* arrival, Span* next, Span* loss) {
  const WorkloadParams params = ParamsFor(Workload::kFaultStorm);
  ExperimentEnv env(MakeEnvConfig(seed));
  std::unique_ptr<FlexPipeSystem> system;
  if (probed) {
    system = std::make_unique<ProbedFlexPipe>(env.Context(), MakeDeployments(env, params.qps),
                                              arrival);
  } else {
    system = std::make_unique<FlexPipeSystem>(env.Context(), MakeDeployments(env, params.qps));
  }
  FlexPipeSystem* sys = system.get();
  FaultInjector injector(&env.sim(), &env.cluster());
  if (probed) {
    injector.AddGpuLossListener([sys, loss](const std::vector<GpuId>& lost) {
      const Clock::time_point start = Clock::now();
      sys->OnGpusLost(lost);
      loss->seconds += SecondsSince(start);
      ++loss->calls;
    });
  } else {
    injector.AddGpuLossListener([sys](const std::vector<GpuId>& lost) { sys->OnGpusLost(lost); });
  }
  injector.Arm(MakeFaultPlan(env.cluster(), seed));

  MergedRequestStream stream = MakeStream(params, seed);
  TimedStream timed(&stream, next);
  RequestStream* source = probed ? static_cast<RequestStream*>(&timed) : &stream;
  WorkloadHarness harness(env, {sys});
  harness.RunPhase(*source, RunOptions{.drain_grace = kDrainGrace, .warmup = kWarmup});
  harness.Finish();

  Outcome out;
  out.completions = sys->metrics().completions();
  out.events = env.sim().executed_events();
  out.submitted = harness.total_submitted();
  out.refactors = sys->refactor_count();
  out.kv_migrated = sys->kv_migrated_bytes();
  out.requeued = sys->failure_stats().requests_requeued;
  out.instances_lost = sys->failure_stats().instances_lost;
  out.health_flags = sys->health_monitor()->flags_raised();
  out.health_migrations = sys->health_migrations();
  out.slot_seconds = sys->GpuSecondsReserved(env.sim().now());
  return out;
}

bool SameCompletions(const Outcome& a, const Outcome& b) {
  if (a.completions.size() != b.completions.size()) {
    return false;
  }
  for (size_t i = 0; i < a.completions.size(); ++i) {
    if (a.completions[i].done_time != b.completions[i].done_time ||
        a.completions[i].latency != b.completions[i].latency) {
      return false;
    }
  }
  return true;
}

// The stream decorator, the OnArrival override and the timed loss listener leave
// every completion, event count and controller decision of a fault run unchanged.
void TestDecoratorsChangeNothing() {
  const uint64_t seed = ReplicaSeed(7, 0);
  const Outcome plain = Serve(seed, /*probed=*/false, nullptr, nullptr, nullptr);
  Span arrival, next, loss;
  const Outcome probed = Serve(seed, /*probed=*/true, &arrival, &next, &loss);

  Expect(SameCompletions(plain, probed), "decorators: completion series differs");
  Expect(plain.events == probed.events, "decorators: executed events differ");
  Expect(plain.submitted == probed.submitted, "decorators: submitted differs");
  Expect(plain.refactors == probed.refactors, "decorators: refactor count differs");
  Expect(plain.kv_migrated == probed.kv_migrated, "decorators: KV migrated differs");
  Expect(plain.requeued == probed.requeued, "decorators: requeued differs");
  Expect(plain.instances_lost == probed.instances_lost, "decorators: instances lost differ");
  Expect(plain.health_flags == probed.health_flags, "decorators: health flags differ");
  Expect(plain.health_migrations == probed.health_migrations,
         "decorators: health migrations differ");
  Expect(plain.slot_seconds == probed.slot_seconds, "decorators: slot-seconds differ");

  // The spans saw every call they wrap, so the comparison covered armed probes.
  Expect(arrival.calls == probed.submitted, "decorators: OnArrival span missed calls");
  Expect(next.calls == probed.submitted + 1, "decorators: stream span missed calls");
  Expect(loss.calls > 0, "decorators: the fault plan never reached the loss listener");
  Expect(probed.instances_lost > 0 && probed.health_flags > 0,
         "decorators: fault_storm exercised neither recovery nor health mitigation");
}

// A traced run (all spans plus the fleet sampler) reproduces the untraced run's
// simulated results and layer counts exactly; only the sampler's own events differ.
void TestTracedRunMatchesUntraced() {
  const uint64_t seed = ReplicaSeed(7, 1);
  const RunResult untraced = RunOnce(Workload::kBurstyMix, seed, /*traced=*/false);
  const RunResult traced = RunOnce(Workload::kBurstyMix, seed, /*traced=*/true);
  Expect(untraced.failures.empty() && traced.failures.empty(), "traced: a run check failed");
  const Named a = untraced.Signature();
  const Named b = traced.Signature();
  Expect(a.size() == b.size(), "traced: signature length differs");
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    Expect(a[i] == b[i], "traced: " + a[i].first + " differs");
  }
  double samples = 0.0;
  for (const auto& [name, value] : traced.traced) {
    samples = name == "sampler.samples" ? value : samples;
  }
  Expect(samples > 0.0, "traced: the sampler never ran");
}

// Pooling one replica reproduces that replica's own percentiles and ratios.
void TestPoolingOneReplica() {
  const RunResult r = RunOnce(Workload::kSteadyMix, ReplicaSeed(7, 2), /*traced=*/false);
  const Named pooled = PooledSimMetrics({r});
  auto get = [&pooled](const std::string& name) {
    for (const auto& [key, value] : pooled) {
      if (key == name) {
        return value;
      }
    }
    return -1.0;
  };
  Expect(get("sim_latency_p50_s") == r.latency.Percentile(50.0), "pooling: p50 differs");
  Expect(get("sim_ttft_p999_s") == r.ttft.Percentile(99.9), "pooling: TTFT p99.9 differs");
  Expect(get("sim_completed_frac") ==
             static_cast<double>(r.completed) / static_cast<double>(r.submitted),
         "pooling: completed fraction differs");
  Expect(ReplicaSeed(7, 0) != ReplicaSeed(7, 1) && ReplicaSeed(7, 0) == ReplicaSeed(7, 0),
         "pooling: replica seeds are not distinct and stable");
}

}  // namespace

int main() {
  TestDecoratorsChangeNothing();
  TestTracedRunMatchesUntraced();
  TestPoolingOneReplica();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
