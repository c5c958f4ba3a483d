// Cluster-scale stress bench: 1024 fragmented GPUs, 4 models, >= 200k requests.
//
// Unlike the fig* benches (which reproduce paper plots on the 82-GPU testbed), this
// bench exists to measure the *substrate*: how fast the discrete-event engine, router
// and controllers push a production-scale workload through one shared cluster. It
// reports executed_events and events_per_sec so the perf trajectory of the hot paths
// accumulates in BENCH_*.json across PRs, and CI runs it at reduced scale
// (FLEXPIPE_STRESS_SCALE=ci) against a checked-in events/sec floor.
//
// The serving run and the engine storm share nothing, so they run as two arms on the
// parallel sweep driver. Serial (FLEXPIPE_SWEEP_WORKERS unset) remains the perf-floor
// configuration: each arm's wall clock is uncontended; the TSan CI job re-runs this
// bench at 4 workers as the race-detection smoke.
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "bench/common.h"
#include "bench/sweep.h"

namespace {

using namespace flexpipe;
using namespace flexpipe::bench;

struct StressParams {
  const char* scale_name;
  ClusterConfig cluster;
  std::vector<double> qps;  // per EvaluationModels() entry
  TimeNs duration;
};

StressParams FullScale() {
  StressParams p;
  p.scale_name = "full";
  // 1024 GPUs across 448 servers (shared with placement_storm — see bench/common.h).
  p.cluster = StressClusterConfig();
  // WHISPER-9B, LLAMA2-7B, BERT-21B, OPT-66B: lighter models carry more traffic,
  // mirroring the fig13/fig14 production mix. 1400 rps aggregate * 300 s = 420k.
  p.qps = {450.0, 450.0, 300.0, 200.0};
  p.duration = 300 * kSecond;
  return p;
}

StressParams CiScale() {
  StressParams p;
  p.scale_name = "ci";
  // 128 GPUs and ~1/8 of the traffic, so runner-sized machines finish in well under a
  // minute while exercising the identical code paths.
  p.cluster = StressCiClusterConfig();
  p.qps = {56.0, 56.0, 38.0, 25.0};
  p.duration = 60 * kSecond;
  return p;
}

// ---------------------------------------------------------------------------
// Engine storm: the serving run measures the whole stack (instances, router,
// controllers share the wall clock with the engine), so engine gains are diluted by
// semantic simulation work. This phase isolates the substrate: a six-figure backlog of
// far-future one-shots, thousands of self-rescheduling short-delay chains (pipeline
// waves), and a watchdog re-arm every 8th step (timeout churn — the pattern whose
// cancels the old engine retained as heap tombstones forever). No workload runner
// parks such a backlog (the streaming runner keeps one pending arrival); here it
// deepens the heap every chain event sifts through, so this is a heap-depth stress.
// ---------------------------------------------------------------------------

struct StormCtx {
  Simulation sim;
  uint64_t remaining = 0;
  uint64_t lcg = 0x9E3779B97F4A7C15ull;
  std::vector<EventId> watchdogs;

  // Deterministic inline LCG: identical event times on every engine implementation.
  uint64_t Next() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  }

  void Step(uint32_t chain) {
    if (remaining == 0) {
      return;
    }
    --remaining;
    if ((remaining & 7) == 0) {
      if (watchdogs[chain] != 0) {
        sim.Cancel(watchdogs[chain]);
      }
      watchdogs[chain] = sim.Schedule(30 * kSecond, [] {});
    }
    // {this, chain} fits std::function's inline buffer: the chain itself allocates
    // nothing, so the measurement isolates the engine rather than malloc.
    sim.Schedule(kMillisecond + static_cast<TimeNs>(Next() % 2000) * kMicrosecond,
                 [this, chain] { Step(chain); });
  }
};

ArmResult EngineStormArm(size_t backlog, size_t chains, uint64_t chain_events) {
  StormCtx ctx;
  ctx.remaining = chain_events;
  ctx.watchdogs.assign(chains, 0);
  for (size_t i = 0; i < backlog; ++i) {
    ctx.sim.ScheduleAt(
        60 * kSecond + static_cast<TimeNs>(ctx.Next() % 300'000) * kMillisecond, [] {});
  }
  for (size_t c = 0; c < chains; ++c) {
    uint32_t chain = static_cast<uint32_t>(c);
    ctx.sim.Schedule(static_cast<TimeNs>(c + 1) * kMillisecond,
                     [&ctx, chain] { ctx.Step(chain); });
  }

  auto start = std::chrono::steady_clock::now();
  ctx.sim.RunUntilIdle();
  std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;

  const double executed = static_cast<double>(ctx.sim.executed_events());
  ArmResult result;
  result.metrics = {{"engine_executed_events", executed},
                    {"engine_storm_wall_s", wall.count()},
                    {"engine_events_per_sec", executed / wall.count()}};
  return result;
}

// The full shared-cluster serving run: its own env, system and streams. Returns the
// summary table rows plus every reported metric; never prints (sweep-arm contract).
ArmResult ServingArm(const StressParams& params) {
  const std::vector<ModelSpec> models = EvaluationModels();
  ExperimentEnvConfig env_config = DefaultEnvConfig(models);
  env_config.cluster = params.cluster;
  ExperimentEnv env(env_config);

  // Requests are drawn lazily and recycled on completion, so the engine holds one
  // pending arrival, never an arrival backlog (the engine-storm arm below parks one).
  MergedRequestStream stream =
      MultiModelWorkloadStream(models, params.qps, /*cv=*/2.0, params.duration);
  auto system = MakeSharedClusterSystem(SystemKind::kFlexPipe, env, params.qps);
  auto wall_start = std::chrono::steady_clock::now();
  StreamingRunReport report = RunStreamingWorkload(
      env, *system, stream, RunOptions{.drain_grace = kDrainGrace, .warmup = kWarmup});
  std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;

  const MetricsCollector& m = system->metrics();
  const double executed = static_cast<double>(env.sim().executed_events());
  const double events_per_sec = executed / wall.count();
  const double completion_rate =
      static_cast<double>(m.completed()) / static_cast<double>(report.submitted);

  ArmResult result;
  result.rows.push_back({"requests submitted", std::to_string(report.submitted)});
  result.rows.push_back({"requests completed", std::to_string(m.completed())});
  result.rows.push_back({"goodput rate", TextTable::Num(m.GoodputRate(report.submitted), 3)});
  result.rows.push_back({"simulated span (s)", TextTable::Num(ToSeconds(report.ran_until), 0)});
  result.rows.push_back({"executed events", TextTable::Num(executed, 0)});
  result.rows.push_back({"run wall time (s)", TextTable::Num(wall.count(), 2)});
  result.rows.push_back({"events/sec", TextTable::Num(events_per_sec, 0)});
  result.rows.push_back(
      {"peak reserved stage slots", std::to_string(system->peak_reserved_gpus())});
  result.rows.push_back({"peak live requests", std::to_string(report.peak_live_requests)});
  result.rows.push_back({"peak event-arena slots", std::to_string(env.sim().arena_slots())});

  result.metrics = {
      {"gpus", static_cast<double>(env.cluster().gpu_count())},
      {"servers", static_cast<double>(env.cluster().server_count())},
      {"submitted", static_cast<double>(report.submitted)},
      {"completed", static_cast<double>(m.completed())},
      {"completion_rate", completion_rate},
      {"goodput_rate", m.GoodputRate(report.submitted)},
      {"executed_events", executed},
      {"run_wall_time_s", wall.count()},
      {"events_per_sec", events_per_sec},
      {"peak_reserved_gpus", static_cast<double>(system->peak_reserved_gpus())},
      {"peak_live_requests", static_cast<double>(report.peak_live_requests)},
      {"peak_arena_slots", static_cast<double>(env.sim().arena_slots())},
  };
  if (auto* fp = dynamic_cast<FlexPipeSystem*>(system.get())) {
    result.metrics.push_back({"refactors", static_cast<double>(fp->refactor_count())});
  }

  // The bench's contract is substrate health, not SLO attainment: it fails only if the
  // cluster-scale run stalls outright (almost nothing completing indicates a lost pump
  // or a wedged controller, not an under-provisioned fleet).
  result.exit_code = completion_rate > 0.5 ? 0 : 1;
  return result;
}

double Metric(const ArmResult& result, const std::string& name) {
  for (const auto& [key, value] : result.metrics) {
    if (key == name) {
      return value;
    }
  }
  return 0.0;
}

int Run(BenchReporter& reporter) {
  const bool ci = StressScaleIsCi();
  StressParams params = ci ? CiScale() : FullScale();

  PrintHeader("Cluster-scale stress: shared multi-model serving",
              "substrate throughput at production scale (not a paper figure)");

  std::vector<SweepArm> arms;
  arms.push_back({"serving", [&params] { return ServingArm(params); }});
  arms.push_back({"storm", [ci] {
                    // Substrate-isolated engine storm, sized like the serving run.
                    return ci ? EngineStormArm(/*backlog=*/50'000, /*chains=*/512,
                                               /*chain_events=*/600'000)
                              : EngineStormArm(/*backlog=*/400'000, /*chains=*/4096,
                                               /*chain_events=*/5'000'000);
                  }});
  ParallelSweepRunner runner;
  auto sweep_start = std::chrono::steady_clock::now();
  std::vector<ArmResult> results = runner.Run(arms);
  std::chrono::duration<double> sweep_wall = std::chrono::steady_clock::now() - sweep_start;
  const ArmResult& serving = results[0];
  const ArmResult& storm = results[1];

  std::printf("scale=%s: %.0f GPUs / %.0f servers, %zu models, CV=2 arrivals for %.0fs\n",
              params.scale_name, Metric(serving, "gpus"), Metric(serving, "servers"),
              EvaluationModels().size(), ToSeconds(params.duration));
  std::printf("workload: %.0f requests (%.0f rps aggregate)\n",
              Metric(serving, "submitted"),
              Metric(serving, "submitted") / ToSeconds(params.duration));

  TextTable table({"Metric", "Value"});
  for (const std::vector<std::string>& row : serving.rows) {
    table.AddRow(row);
  }
  table.Print();

  std::printf("\nrefactors: %" PRId64 "\n",
              static_cast<int64_t>(Metric(serving, "refactors")));
  std::printf("\nengine storm: %.0f events in %.2fs -> %.0f events/s\n",
              Metric(storm, "engine_executed_events"), Metric(storm, "engine_storm_wall_s"),
              Metric(storm, "engine_events_per_sec"));

  for (const ArmResult& result : results) {
    for (const auto& [name, value] : result.metrics) {
      if (name == "gpus" || name == "servers") {
        continue;  // scale descriptors, not perf metrics
      }
      reporter.Metric(name, value);
    }
  }
  reporter.Metric("sweep_workers", static_cast<double>(runner.workers()));
  reporter.Metric("sweep_wall_s", sweep_wall.count());
  return serving.exit_code;
}

}  // namespace

REGISTER_BENCH(stress_scale, "Cluster-scale stress: 1024 GPUs, 4 models, 200k+ requests",
               Run);
