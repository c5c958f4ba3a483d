// Shared scaffolding for the experiment benches.
//
// Each bench regenerates one table or figure from the paper. They all follow the same
// recipe: build a fresh ExperimentEnv per (system, workload) cell — serving systems
// mutate cluster state — run the workload, and print a paper-style text table. Headline
// workload parameters mirror §9: 20 QPS baseline, CV-parameterised arrivals, Splitwise-
// like prompt/output lengths, OPT-66B unless stated otherwise. Lifecycles are shortened
// from the paper's 2 hours to simulated minutes (steady state is reached much earlier);
// see EXPERIMENTS.md.
#ifndef FLEXPIPE_BENCH_COMMON_H_
#define FLEXPIPE_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/alpaserve.h"
#include "src/baselines/muxserve.h"
#include "src/baselines/serverless_llm.h"
#include "src/baselines/tetris.h"
#include "src/common/macros.h"
#include "src/common/table.h"
#include "src/core/experiment.h"
#include "src/core/flexpipe_system.h"
#include "src/metrics/recovery.h"

namespace flexpipe {
namespace bench {

// §9's headline arrival rate. Fig. 3/4/8 all sweep CV at this baseline.
inline constexpr double kBaselineQps = 20.0;

// The cluster-scale stress shape shared by stress_scale's serving phase and the
// placement_storm microbench: 128 + 2*192 + 4*128 = 1024 GPUs across 448 servers,
// the same mixed 1/2/4-GPU server mix as the 82-GPU testbed scaled ~12x.
inline ClusterConfig StressClusterConfig() {
  ClusterConfig c;
  c.servers_1gpu = 128;
  c.servers_2gpu = 192;
  c.servers_4gpu = 128;
  c.cpu_only_servers = 8;
  c.racks = 32;
  return c;
}

// Reduced FLEXPIPE_STRESS_SCALE=ci shape shared by stress_scale and
// stress_endurance: 16 + 2*24 + 4*16 = 128 GPUs, ~1/8 of the full cluster.
inline ClusterConfig StressCiClusterConfig() {
  ClusterConfig c;
  c.servers_1gpu = 16;
  c.servers_2gpu = 24;
  c.servers_4gpu = 16;
  c.cpu_only_servers = 2;
  c.racks = 8;
  return c;
}

// True when FLEXPIPE_STRESS_SCALE=ci selects the reduced shape of the cluster-scale
// benches (stress_scale, stress_endurance and the fig15/16/17 storms).
inline bool StressScaleIsCi() {
  const char* scale = std::getenv("FLEXPIPE_STRESS_SCALE");
  return scale != nullptr && std::strcmp(scale, "ci") == 0;
}

inline constexpr TimeNs kDefaultSlo = 10 * kSecond;
inline constexpr TimeNs kDefaultDuration = 5 * kMinute;
inline constexpr TimeNs kDrainGrace = 60 * kSecond;
// Initial fleet deployment (provisioning + cold parameter load) happens before traffic.
inline constexpr TimeNs kWarmup = 90 * kSecond;
inline constexpr uint64_t kSeed = 42;

enum class SystemKind {
  kFlexPipe,
  kAlpaServe,
  kMuxServe,
  kServerlessLlm,
  kTetris,
};

inline const char* KindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kFlexPipe:
      return "FlexPipe";
    case SystemKind::kAlpaServe:
      return "AlpaServe";
    case SystemKind::kMuxServe:
      return "MuxServe";
    case SystemKind::kServerlessLlm:
      return "ServerlessLLM";
    case SystemKind::kTetris:
      return "Tetris";
  }
  return "?";
}

inline std::vector<SystemKind> AllSystems() {
  return {SystemKind::kFlexPipe, SystemKind::kAlpaServe, SystemKind::kMuxServe,
          SystemKind::kServerlessLlm, SystemKind::kTetris};
}

inline ExperimentEnvConfig DefaultEnvConfig(std::vector<ModelSpec> models = {Opt66B()},
                                            uint64_t seed = kSeed) {
  ExperimentEnvConfig config;
  config.models = std::move(models);
  config.seed = seed;
  return config;
}

inline WorkloadGenerator::Config DefaultWorkloadConfig(int model_index = 0) {
  WorkloadGenerator::Config config;
  config.model_index = model_index;
  config.slo = kDefaultSlo;
  config.lengths.prompt_median = 512;
  config.lengths.prompt_sigma = 0.9;
  config.lengths.prompt_max = 4096;
  config.lengths.output_median = 24;
  config.lengths.output_sigma = 0.7;
  config.lengths.output_max = 256;
  return config;
}

// Builds the system under test. `expected_cv` parameterises the static systems' offline
// tuning knobs the way the paper's baselines were configured per experiment.
inline std::unique_ptr<ServingSystemBase> MakeSystem(SystemKind kind, ExperimentEnv& env,
                                                     int model_index = 0,
                                                     double peak_rps = kBaselineQps) {
  const GranularityLadder& ladder = env.ladder(model_index);
  switch (kind) {
    case SystemKind::kFlexPipe: {
      FlexPipeConfig config;
      config.model_id = model_index;
      config.initial_stages = ladder.coarsest();
      config.target_peak_rps = peak_rps;
      config.default_slo = kDefaultSlo;
      // The paper's 5-minute reclamation window, scaled to the compressed bench
      // lifecycle (2 h -> ~5 min).
      config.scaling.reclaim_idle = 45 * kSecond;
      return std::make_unique<FlexPipeSystem>(env.Context(), &ladder, config);
    }
    case SystemKind::kAlpaServe: {
      AlpaServeConfig config;
      config.model_id = model_index;
      config.stages = ladder.coarsest();
      config.target_peak_rps = peak_rps;
      config.default_slo = kDefaultSlo;
      return std::make_unique<AlpaServeSystem>(env.Context(), &ladder, config);
    }
    case SystemKind::kMuxServe: {
      MuxServeConfig config;
      config.model_id = model_index;
      config.stages = ladder.coarsest();
      config.target_peak_rps = peak_rps;
      config.default_slo = kDefaultSlo;
      return std::make_unique<MuxServeSystem>(env.Context(), &ladder, config);
    }
    case SystemKind::kServerlessLlm: {
      ServerlessLlmConfig config;
      config.reactive.model_id = model_index;
      // DeepSpeed-style static pipeline degree; its edge is the fast checkpoint loader.
      config.reactive.stages = ladder.coarsest();
      config.reactive.min_replicas = 1;
      config.reactive.check_interval = 2 * kSecond;
      config.reactive.scale_up_queue_per_replica = 16;
      config.reactive.default_slo = kDefaultSlo;
      return std::make_unique<ServerlessLlmSystem>(env.Context(), &ladder, config);
    }
    case SystemKind::kTetris: {
      TetrisConfig config;
      config.reactive.model_id = model_index;
      config.reactive.stages = ladder.coarsest();
      config.reactive.min_replicas = 6;  // pre-provisioned like the other baselines
      config.reactive.placement = PlacementPolicy::kBestFit;
      config.reactive.distinct_servers = false;
      config.reactive.check_interval = 2 * kSecond;
      config.reactive.max_replicas = 10;
      config.reactive.default_slo = kDefaultSlo;
      return std::make_unique<TetrisSystem>(env.Context(), &ladder, config);
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Multi-model shared-cluster mode (fig13 shared / fig14): one system serves every
// model in `env` concurrently, contending for the same GPUs. Supported by the systems
// with multi-model deployments: FlexPipe, AlpaServe, ServerlessLLM.
// ---------------------------------------------------------------------------

// FlexPipe over every model in `env`: each deployment copies `base` (the experiment's
// own knobs: recovery policy, placement, brownout, health) and fills in its model,
// coarsest starting granularity, peak rate, SLO and the bench reclamation window.
// The shared placer and health monitor take the first deployment's knobs.
inline std::unique_ptr<FlexPipeSystem> MakeSharedFlexPipe(
    ExperimentEnv& env, const std::vector<double>& peak_rps_by_model,
    const FlexPipeConfig& base = FlexPipeConfig{}) {
  std::vector<FlexPipeSystem::ModelDeployment> deployments;
  for (size_t i = 0; i < peak_rps_by_model.size(); ++i) {
    FlexPipeSystem::ModelDeployment d;
    d.ladder = &env.ladder(static_cast<int>(i));
    d.config = base;
    d.config.model_id = static_cast<int>(i);
    d.config.initial_stages = d.ladder->coarsest();
    d.config.target_peak_rps = peak_rps_by_model[i];
    d.config.default_slo = kDefaultSlo;
    d.config.scaling.reclaim_idle = 45 * kSecond;
    deployments.push_back(d);
  }
  return std::make_unique<FlexPipeSystem>(env.Context(), std::move(deployments));
}

inline std::unique_ptr<ServingSystemBase> MakeSharedClusterSystem(
    SystemKind kind, ExperimentEnv& env, const std::vector<double>& peak_rps_by_model) {
  const int n = static_cast<int>(peak_rps_by_model.size());
  switch (kind) {
    case SystemKind::kFlexPipe:
      return MakeSharedFlexPipe(env, peak_rps_by_model);
    case SystemKind::kAlpaServe: {
      std::vector<AlpaServeSystem::ModelDeployment> deployments;
      for (int i = 0; i < n; ++i) {
        AlpaServeSystem::ModelDeployment d;
        d.ladder = &env.ladder(i);
        d.config.model_id = i;
        d.config.stages = d.ladder->coarsest();
        d.config.target_peak_rps = peak_rps_by_model[static_cast<size_t>(i)];
        d.config.default_slo = kDefaultSlo;
        deployments.push_back(d);
      }
      return std::make_unique<AlpaServeSystem>(env.Context(), std::move(deployments));
    }
    case SystemKind::kServerlessLlm: {
      std::vector<ReactiveScalingSystem::ModelDeployment> deployments;
      for (int i = 0; i < n; ++i) {
        ReactiveScalingSystem::ModelDeployment d;
        d.ladder = &env.ladder(i);
        d.config.model_id = i;
        d.config.stages = d.ladder->coarsest();
        d.config.min_replicas = 1;
        d.config.check_interval = 2 * kSecond;
        d.config.scale_up_queue_per_replica = 16;
        d.config.default_slo = kDefaultSlo;
        deployments.push_back(d);
      }
      return std::make_unique<ServerlessLlmSystem>(env.Context(), std::move(deployments));
    }
    default:
      // MuxServe / Tetris stay single-model; a null return here would only surface as
      // a crash at the call site's dereference.
      FLEXPIPE_CHECK_MSG(false, "system kind does not support shared-cluster deployments");
      return nullptr;
  }
}

struct CellResult {
  int64_t submitted = 0;
  int64_t completed = 0;
  double goodput_rate = 0.0;       // completions within SLO / submitted
  double mean_latency_s = 0.0;
  LatencyBreakdown breakdown;
  double p50 = 0.0, p75 = 0.0, p90 = 0.0, p95 = 0.0, p99 = 0.0;
  double mean_prefill_s = 0.0;
  double gpu_utilization = 0.0;    // busy / reserved GPU-time
  double goodput_per_sec = 0.0;
  double stall_seconds = 0.0;
  RecoveryReport recovery;
  int peak_gpus = 0;
  double mean_gpus = 0.0;  // time-averaged reserved GPUs
  double mean_alloc_wait_s = 0.0;
  int64_t cold_loads = 0;
  int64_t warm_loads = 0;
  // FlexPipe-only:
  int64_t refactors = 0;
  double last_pause_ms = 0.0;
  int final_stages = 0;
};

// Extracts a cell's metrics from a finished run.
inline CellResult FillCell(ServingSystemBase& system, int64_t submitted, TimeNs ran_until,
                           TimeNs measured_span) {
  CellResult cell;
  cell.submitted = submitted;
  const MetricsCollector& m = system.metrics();
  cell.completed = m.completed();
  cell.goodput_rate = m.GoodputRate(submitted);
  cell.mean_latency_s = m.MeanLatencySec();
  cell.breakdown = m.MeanBreakdown();
  cell.p50 = m.LatencyPercentileSec(50);
  cell.p75 = m.LatencyPercentileSec(75);
  cell.p90 = m.LatencyPercentileSec(90);
  cell.p95 = m.LatencyPercentileSec(95);
  cell.p99 = m.LatencyPercentileSec(99);
  cell.mean_prefill_s = m.MeanPrefillSec();
  cell.gpu_utilization = system.MeanGpuUtilization(ran_until);
  cell.goodput_per_sec = m.GoodputPerSec(measured_span);
  cell.stall_seconds = ToSeconds(system.TotalStallAll());
  cell.recovery = AnalyzeRecovery(m.completions());
  cell.peak_gpus = system.peak_reserved_gpus();
  cell.mean_gpus =
      system.GpuSecondsReserved(ran_until) / std::max(1.0, ToSeconds(ran_until));
  cell.mean_alloc_wait_s = system.MeanAllocationWaitSec();
  cell.cold_loads = system.cold_loads();
  cell.warm_loads = system.warm_loads();
  if (auto* fp = dynamic_cast<FlexPipeSystem*>(&system)) {
    cell.refactors = fp->refactor_count();
    cell.last_pause_ms = ToMillis(fp->last_refactor_pause());
    cell.final_stages = fp->current_stages();
  }
  return cell;
}

// ---------------------------------------------------------------------------
// Workloads: benches draw requests lazily through StreamingWorkloadSource, so
// workload memory is O(1) per stream regardless of duration. Arrival sequences are
// bit-identical to WorkloadGenerator's for the same seed (pinned by trace_test);
// token lengths come from a dedicated child RNG stream.
// ---------------------------------------------------------------------------

// Standard CV-parameterised workload at the paper's baseline QPS.
inline StreamingWorkloadSource CvWorkloadStream(double cv, double qps = kBaselineQps,
                                                TimeNs duration = kDefaultDuration,
                                                uint64_t seed = kSeed,
                                                int model_index = 0) {
  return StreamingWorkloadSource::WithCv(DefaultWorkloadConfig(model_index), qps, cv,
                                         duration,
                                         Rng(Rng(seed).Child("workload").seed()));
}

// Interleaved per-model traces: one CV-parameterised stream per model, merged into
// a single time-ordered arrival sequence with dense ids (requests carry their
// model_index).
inline MergedRequestStream MultiModelWorkloadStream(
    const std::vector<ModelSpec>& models, const std::vector<double>& qps_by_model,
    double cv, TimeNs duration, uint64_t seed = kSeed) {
  std::vector<std::unique_ptr<RequestStream>> parts;
  for (size_t i = 0; i < models.size(); ++i) {
    WorkloadGenerator::Config wconfig = DefaultWorkloadConfig(static_cast<int>(i));
    wconfig.lengths.prompt_max = models[i].context_window;
    parts.push_back(std::make_unique<StreamingWorkloadSource>(StreamingWorkloadSource::WithCv(
        wconfig, qps_by_model[i], cv, duration, Rng(Rng(seed).Child(models[i].name).seed()))));
  }
  return MergedRequestStream(std::move(parts));
}

// Runs `kind` on a fresh environment against `stream`; returns the metrics cell.
// `stream` is consumed, so callers build a fresh (identically seeded) stream per
// system.
inline CellResult RunCellStreaming(SystemKind kind, RequestStream& stream,
                                   std::vector<ModelSpec> models = {Opt66B()},
                                   uint64_t seed = kSeed,
                                   double peak_rps = kBaselineQps) {
  ExperimentEnv env(DefaultEnvConfig(std::move(models), seed));
  std::unique_ptr<ServingSystemBase> system = MakeSystem(kind, env, 0, peak_rps);
  StreamingRunReport report = RunStreamingWorkload(
      env, *system, stream, RunOptions{.drain_grace = kDrainGrace, .warmup = kWarmup});
  return FillCell(*system, report.submitted, report.ran_until, report.measured_span());
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("=== %s ===\n", title);
  std::printf("Reproduces: %s\n\n", paper_ref);
}

// ---------------------------------------------------------------------------
// Bench registry: every bench translation unit registers one entry point via
// REGISTER_BENCH and the flexpipe_bench runner multiplexes them behind
// --list / --filter / --json.
// ---------------------------------------------------------------------------

// Collects named scalar metrics during a bench run. The runner serialises them
// to JSON (together with wall time) when --json is given.
class BenchReporter {
 public:
  void Metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }
  const std::vector<std::pair<std::string, double>>& metrics() const { return metrics_; }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
};

using BenchFn = int (*)(BenchReporter&);

struct BenchInfo {
  const char* name;         // registry key, e.g. "fig8"
  const char* description;  // one-line summary shown by --list
  BenchFn fn;
};

class BenchRegistry {
 public:
  static BenchRegistry& Instance();
  void Register(const BenchInfo& info);
  const std::vector<BenchInfo>& benches() const { return benches_; }

 private:
  std::vector<BenchInfo> benches_;
};

// Static initialisation hook used by REGISTER_BENCH. Bench objects compile
// straight into the flexpipe_bench binary (not an archive), so registrars are
// never dropped by the linker.
struct BenchRegistrar {
  BenchRegistrar(const char* name, const char* description, BenchFn fn);
};

// Stable metric-name tag for a CV value: CvTag(0.1) == "cv0.1", CvTag(4.0) == "cv4".
inline std::string CvTag(double cv) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cv%g", cv);
  return buf;
}

// Reports a cell's headline metrics under `prefix` (e.g. "flexpipe_cv4_").
inline void ReportCell(BenchReporter& reporter, const std::string& prefix,
                       const CellResult& cell) {
  reporter.Metric(prefix + "goodput_rate", cell.goodput_rate);
  reporter.Metric(prefix + "goodput_per_sec", cell.goodput_per_sec);
  reporter.Metric(prefix + "mean_latency_s", cell.mean_latency_s);
  reporter.Metric(prefix + "p99_latency_s", cell.p99);
}

}  // namespace bench
}  // namespace flexpipe

// Registers `fn` — an `int(flexpipe::bench::BenchReporter&)` — under `name`.
// Exactly one per bench translation unit, at namespace scope.
#define REGISTER_BENCH(name, description, fn)                                     \
  static const ::flexpipe::bench::BenchRegistrar flexpipe_bench_registrar_##name( \
      #name, description, fn)

#endif  // FLEXPIPE_BENCH_COMMON_H_
