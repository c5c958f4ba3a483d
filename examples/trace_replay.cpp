// Trace replay: synthesize an Azure-Functions-like day, replay a compressed version
// against FlexPipe and a static baseline, and compare SLO attainment and GPU cost.
#include <cstdio>

#include "src/baselines/alpaserve.h"
#include "src/core/experiment.h"
#include "src/core/flexpipe_system.h"
#include "src/trace/azure_trace.h"
#include "src/trace/cv_analysis.h"

using namespace flexpipe;

namespace {

std::vector<RequestSpec> CompressedDay() {
  AzureTraceSynthesizer::Config config;
  config.days = 1;
  config.base_rate = 14.0;
  config.seed = 123;
  AzureTraceSynthesizer synth(config);
  auto raw = synth.GenerateArrivals();
  // Compress 24h into 10 simulated minutes, keeping every 70th arrival so the mean
  // offered rate (~30 rps) fits the 30 rps peak both deployments below are sized for.
  const double compress = 600.0 / 86400.0;
  std::vector<TimeNs> ts;
  for (size_t i = 0; i < raw.size(); i += 70) {
    ts.push_back(static_cast<TimeNs>(static_cast<double>(raw[i]) * compress));
  }
  TraceReplayArrivals replay(ts);
  WorkloadGenerator::Config wconfig;
  wconfig.slo = 10 * kSecond;
  WorkloadGenerator gen(wconfig);
  Rng rng(5);
  return gen.Generate(replay, rng, ts.size());
}

}  // namespace

int main() {
  auto specs = CompressedDay();
  std::vector<TimeNs> arrivals;
  for (const auto& s : specs) {
    arrivals.push_back(s.arrival);
  }
  std::printf("trace: %zu requests over ~10 min; 15s-window count CV %.2f, 2.5min-window %.2f\n\n",
              specs.size(),
              WindowedCountCv(arrivals, 15 * kSecond, 0, 10 * kMinute),
              WindowedCountCv(arrivals, 150 * kSecond, 0, 10 * kMinute));

  RunOptions options;
  options.warmup = 90 * kSecond;
  options.drain_grace = 60 * kSecond;

  // FlexPipe.
  {
    ExperimentEnvConfig env_config;
    env_config.models = {Opt66B()};
    ExperimentEnv env(env_config);
    FlexPipeConfig config;
    config.initial_stages = env.ladder(0).coarsest();
    config.target_peak_rps = 30.0;
    config.default_slo = 10 * kSecond;
    FlexPipeSystem system(env.Context(), &env.ladder(0), config);
    VectorRequestStream stream(specs);
    StreamingRunReport report = RunStreamingWorkload(env, system, stream, options);
    std::printf("FlexPipe : goodput %.1f%%  meanRT %.2fs  P99 %.2fs  peakGPUs %d  util %.1f%%\n",
                100 * system.metrics().GoodputRate(report.submitted),
                system.metrics().MeanLatencySec(), system.metrics().LatencyPercentileSec(99),
                system.peak_reserved_gpus(),
                100 * system.MeanGpuUtilization(report.ran_until));
  }
  // Static peak-provisioned baseline.
  {
    ExperimentEnvConfig env_config;
    env_config.models = {Opt66B()};
    ExperimentEnv env(env_config);
    AlpaServeConfig config;
    config.stages = env.ladder(0).coarsest();
    config.target_peak_rps = 30.0;
    config.default_slo = 10 * kSecond;
    AlpaServeSystem system(env.Context(), &env.ladder(0), config);
    VectorRequestStream stream(specs);
    StreamingRunReport report = RunStreamingWorkload(env, system, stream, options);
    std::printf("AlpaServe: goodput %.1f%%  meanRT %.2fs  P99 %.2fs  peakGPUs %d  util %.1f%%\n",
                100 * system.metrics().GoodputRate(report.submitted),
                system.metrics().MeanLatencySec(), system.metrics().LatencyPercentileSec(99),
                system.peak_reserved_gpus(),
                100 * system.MeanGpuUtilization(report.ran_until));
  }
  return 0;
}
