// Endurance stress: ~1 simulated hour of multi-model traffic streamed through the
// shared 1024-GPU deployment — millions of requests through one process.
//
// stress_scale measures substrate *throughput*; this bench proves substrate *memory*
// stays proportional to in-flight work, not trace length. Everything O(trace) is off:
// the workload is drawn lazily (StreamingWorkloadSource), completed requests are
// recycled through the runner's pool, and the metrics collector keeps histograms but
// no per-completion series. The headline outputs are the peak event-arena slot count
// and the peak live-request count: both must stay flat no matter how long the
// scenario runs, which is what makes hour-scale (PipeBoost/HydraServe-style) sustained
// traffic feasible where pre-scheduling every arrival would pin one engine event per
// request. CI runs the reduced FLEXPIPE_STRESS_SCALE=ci shape against events/sec and
// arena-headroom floors.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "bench/common.h"

namespace {

using namespace flexpipe;
using namespace flexpipe::bench;

struct EnduranceParams {
  const char* scale_name;
  ClusterConfig cluster;
  std::vector<double> qps;  // per EvaluationModels() entry
  TimeNs duration;
  // Hard ceiling on event-arena slots: generous headroom over the in-flight
  // steady state, far below one-slot-per-request. Exceeding it means some part of the
  // stack scales with trace length again.
  size_t arena_slot_budget;
};

EnduranceParams FullScale() {
  EnduranceParams p;
  p.scale_name = "full";
  p.cluster = StressClusterConfig();  // 1024 GPUs / 448 servers, shared with stress_scale
  // 300 rps aggregate * 3600 s = 1.08M requests; light enough that the fleet reaches a
  // steady state and the bench finishes in minutes of wall time.
  p.qps = {100.0, 100.0, 60.0, 40.0};
  p.duration = 1 * kHour;
  p.arena_slot_budget = 50'000;
  return p;
}

EnduranceParams CiScale() {
  EnduranceParams p;
  p.scale_name = "ci";
  p.cluster = StressCiClusterConfig();
  // 56 rps for 5 simulated minutes: the identical streaming/recycling code paths at
  // runner-friendly cost.
  p.qps = {18.0, 18.0, 12.0, 8.0};
  p.duration = 5 * kMinute;
  p.arena_slot_budget = 20'000;
  return p;
}

double MaxRssMiB() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int Run(BenchReporter& reporter) {
  const bool ci = StressScaleIsCi();
  EnduranceParams params = ci ? CiScale() : FullScale();

  PrintHeader("Endurance stress: streamed hour-scale multi-model serving",
              "memory bounded by in-flight work, not trace length (not a paper figure)");

  const std::vector<ModelSpec> models = EvaluationModels();
  ExperimentEnvConfig env_config = DefaultEnvConfig(models);
  env_config.cluster = params.cluster;
  ExperimentEnv env(env_config);

  double aggregate_qps = 0.0;
  for (double q : params.qps) {
    aggregate_qps += q;
  }
  std::printf("scale=%s: %d GPUs / %d servers, %zu models, CV=2 arrivals, %.0f rps for "
              "%.0f simulated seconds (~%.1fM requests)\n",
              params.scale_name, env.cluster().gpu_count(), env.cluster().server_count(),
              models.size(), aggregate_qps, ToSeconds(params.duration),
              aggregate_qps * ToSeconds(params.duration) / 1e6);

  MergedRequestStream stream =
      MultiModelWorkloadStream(models, params.qps, /*cv=*/2.0, params.duration);
  auto system = MakeSharedClusterSystem(SystemKind::kFlexPipe, env, params.qps);
  // Hour-scale runs retain no per-completion series; histograms carry the metrics.
  system->metrics().SetKeepCompletionSeries(false);

  auto wall_start = std::chrono::steady_clock::now();
  StreamingRunReport report = RunStreamingWorkload(
      env, *system, stream, RunOptions{.drain_grace = kDrainGrace, .warmup = kWarmup});
  std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;

  const MetricsCollector& m = system->metrics();
  const double executed = static_cast<double>(env.sim().executed_events());
  const double events_per_sec = executed / wall.count();
  const double completion_rate =
      static_cast<double>(m.completed()) / static_cast<double>(report.submitted);
  const size_t arena_slots = env.sim().arena_slots();
  const double arena_headroom = static_cast<double>(params.arena_slot_budget) /
                                static_cast<double>(arena_slots);

  TextTable table({"Metric", "Value"});
  table.AddRow({"requests streamed", std::to_string(report.submitted)});
  table.AddRow({"requests completed", std::to_string(m.completed())});
  table.AddRow({"completion rate", TextTable::Num(completion_rate, 3)});
  table.AddRow({"goodput rate", TextTable::Num(m.GoodputRate(report.submitted), 3)});
  table.AddRow({"simulated span (s)", TextTable::Num(ToSeconds(report.ran_until), 0)});
  table.AddRow({"executed events", TextTable::Num(executed, 0)});
  table.AddRow({"run wall time (s)", TextTable::Num(wall.count(), 2)});
  table.AddRow({"events/sec", TextTable::Num(events_per_sec, 0)});
  table.AddRow({"peak live requests", std::to_string(report.peak_live_requests)});
  table.AddRow({"peak event-arena slots", std::to_string(arena_slots)});
  table.AddRow({"arena slot budget", std::to_string(params.arena_slot_budget)});
  table.AddRow({"peak reserved stage slots", std::to_string(system->peak_reserved_gpus())});
  table.AddRow({"process max RSS (MiB)", TextTable::Num(MaxRssMiB(), 1)});
  table.Print();

  std::printf("\nmemory check: %zu arena slots and %zu peak live requests for %" PRId64
              " streamed requests -> %.2f%% / %.2f%% of trace length\n",
              arena_slots, report.peak_live_requests, report.submitted,
              100.0 * static_cast<double>(arena_slots) /
                  static_cast<double>(report.submitted),
              100.0 * static_cast<double>(report.peak_live_requests) /
                  static_cast<double>(report.submitted));

  reporter.Metric("submitted", static_cast<double>(report.submitted));
  reporter.Metric("completed", static_cast<double>(m.completed()));
  reporter.Metric("completion_rate", completion_rate);
  reporter.Metric("goodput_rate", m.GoodputRate(report.submitted));
  reporter.Metric("executed_events", executed);
  reporter.Metric("run_wall_time_s", wall.count());
  reporter.Metric("events_per_sec", events_per_sec);
  reporter.Metric("peak_live_requests", static_cast<double>(report.peak_live_requests));
  reporter.Metric("peak_arena_slots", static_cast<double>(arena_slots));
  // Floored in ci/perf_floor.json: >= 1.0 means the arena stayed within budget. The
  // exit code enforces the hard ceiling; the floor catches creeping regressions.
  reporter.Metric("arena_slot_headroom", arena_headroom);
  reporter.Metric("max_rss_mib", MaxRssMiB());

  if (arena_slots > params.arena_slot_budget) {
    std::printf("FAIL: event arena grew past the in-flight budget (%zu > %zu) — "
                "something scales with trace length again\n",
                arena_slots, params.arena_slot_budget);
    return 1;
  }
  if (report.peak_live_requests * 4 > static_cast<size_t>(report.submitted)) {
    std::printf("FAIL: peak live requests are a constant fraction of the trace — "
                "recycling is not bounding request storage\n");
    return 1;
  }
  return completion_rate > 0.5 ? 0 : 1;
}

}  // namespace

REGISTER_BENCH(stress_endurance,
               "Endurance stress: 1 simulated hour / 1M+ streamed requests, flat memory",
               Run);
