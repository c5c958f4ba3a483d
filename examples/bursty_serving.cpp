// Bursty-serving walkthrough: watch FlexPipe adapt granularity and fleet size live as a
// workload flips between calm and bursty phases (the scenario of the paper's Fig. 9).
#include <cstdio>

#include "src/core/experiment.h"
#include "src/core/flexpipe_system.h"

using namespace flexpipe;

int main() {
  ExperimentEnvConfig env_config;
  env_config.models = {Opt66B()};
  env_config.seed = 3;
  ExperimentEnv env(env_config);

  FlexPipeConfig config;
  config.initial_stages = env.ladder(0).coarsest();
  config.target_peak_rps = 30.0;
  config.default_slo = 10 * kSecond;
  FlexPipeSystem system(env.Context(), &env.ladder(0), config);

  // Three phases: calm (CV 0.5) -> burst storm (CV 6) -> calm again.
  WorkloadGenerator gen;
  Rng rng(11);
  auto calm1 = gen.GenerateWithCv(rng, 20.0, 0.5, 2 * kMinute);
  auto storm = gen.GenerateWithCv(rng, 30.0, 6.0, 2 * kMinute);
  for (auto& s : storm) {
    s.arrival += 2 * kMinute;
  }
  auto calm2 = gen.GenerateWithCv(rng, 20.0, 0.5, 2 * kMinute);
  for (auto& s : calm2) {
    s.arrival += 4 * kMinute;
  }
  auto specs = MergeWorkloads({calm1, storm, calm2});

  // A probe prints the controller's view every 30 simulated seconds.
  std::printf("time   phase   cv_obs  stages  instances  queue  refactors\n");
  PeriodicTask probe(&env.sim(), 30 * kSecond, [&] {
    double t = ToSeconds(env.sim().now());
    const char* phase = t < 150 ? "warm/calm" : (t < 270 ? "storm" : "calm");
    int instances = 0;
    for (const auto* inst : system.router().instances()) {
      if (inst->state() == InstanceState::kActive) {
        ++instances;
      }
    }
    std::printf("%5.0fs  %-7s %5.2f   %4d    %6d   %5d  %6lld\n", t, phase,
                system.cv_monitor().Cv(), system.current_stages(), instances,
                system.router().queue_length(),
                static_cast<long long>(system.refactor_count()));
  });

  VectorRequestStream stream(specs);
  RunOptions options;
  options.warmup = 60 * kSecond;
  options.drain_grace = 60 * kSecond;
  RunStreamingWorkload(env, system, stream, options);
  probe.Cancel();

  std::printf("\ndone: %lld completed, mean %.2fs, P99 %.2fs, KV migrated %.1f MiB\n",
              static_cast<long long>(system.metrics().completed()),
              system.metrics().MeanLatencySec(), system.metrics().LatencyPercentileSec(99),
              ToMiB(system.kv_migrated_bytes()));
  return 0;
}
