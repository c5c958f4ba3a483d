// Quickstart: partition a model, deploy FlexPipe on the simulated cluster, serve a
// small workload, and print what happened.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart
#include <cstdio>

#include "src/core/experiment.h"
#include "src/core/flexpipe_system.h"

using namespace flexpipe;

int main() {
  // 1. An experiment environment: 42-server/82-GPU cluster with production-calibrated
  //    fragmentation, network fabric, cost model, and a granularity ladder for the model.
  ExperimentEnvConfig env_config;
  env_config.models = {Llama2_7B()};
  env_config.seed = 1;
  ExperimentEnv env(env_config);

  const GranularityLadder& ladder = env.ladder(0);
  std::printf("granularity ladder for %s:\n", ladder.spec.name.c_str());
  for (int g : ladder.granularities) {
    std::printf("  %s\n", ladder.plan(g).Describe().c_str());
  }

  // 2. A FlexPipe deployment: starts at the coarsest feasible granularity with a 30%
  //    always-on reserve and adapts from there.
  FlexPipeConfig config;
  config.initial_stages = ladder.coarsest();
  config.target_peak_rps = 10.0;
  config.default_slo = 10 * kSecond;
  FlexPipeSystem system(env.Context(), &ladder, config);

  // 3. A bursty workload: 8 req/s with CV 3 inter-arrivals for two simulated minutes.
  WorkloadGenerator gen;
  Rng rng(7);
  std::vector<RequestSpec> specs = gen.GenerateWithCv(rng, 8.0, 3.0, 2 * kMinute);

  // 4. Serve it. The run shifts arrivals past the initial parameter load (warmup).
  VectorRequestStream stream(specs);
  RunOptions options;
  options.warmup = 30 * kSecond;
  options.drain_grace = 60 * kSecond;
  StreamingRunReport report = RunStreamingWorkload(env, system, stream, options);

  // 5. Results.
  const MetricsCollector& m = system.metrics();
  std::printf("\nserved %lld/%lld requests | mean latency %.2fs | P99 %.2fs | goodput %.1f%%\n",
              static_cast<long long>(m.completed()), static_cast<long long>(report.submitted),
              m.MeanLatencySec(), m.LatencyPercentileSec(99),
              100.0 * m.GoodputRate(report.submitted));
  std::printf("refactors: %lld (last cutover pause %.2f ms) | warm loads %lld / cold %lld\n",
              static_cast<long long>(system.refactor_count()),
              ToMillis(system.last_refactor_pause()),
              static_cast<long long>(system.warm_loads()),
              static_cast<long long>(system.cold_loads()));
  std::printf("steady-state granularity: %d stages | peak GPUs %d | GPU utilization %.1f%%\n",
              system.current_stages(), system.peak_reserved_gpus(),
              100.0 * system.MeanGpuUtilization(report.ran_until));
  return 0;
}
