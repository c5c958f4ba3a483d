#include "perfbench/harness.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <functional>
#include <string>

#include "src/common/macros.h"
#include "src/model/model_spec.h"
#include "src/sim/auditor.h"

namespace perfbench {

using namespace flexpipe;

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kSteadyMix:
      return "steady_mix";
    case Workload::kBurstyMix:
      return "bursty_mix";
    case Workload::kFaultStorm:
      return "fault_storm";
  }
  return "?";
}

std::vector<Workload> AllWorkloads() {
  return {Workload::kSteadyMix, Workload::kBurstyMix, Workload::kFaultStorm};
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : AllWorkloads()) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

WorkloadParams ParamsFor(Workload workload) {
  // WHISPER-9B, LLAMA2-7B, BERT-21B, OPT-66B in stress_scale's 9:9:6:4 proportions:
  // the lighter models carry more of the traffic.
  auto mix = [](double aggregate_rps) {
    const double unit = aggregate_rps / 28.0;
    return std::vector<double>{9 * unit, 9 * unit, 6 * unit, 4 * unit};
  };
  WorkloadParams p;
  switch (workload) {
    case Workload::kSteadyMix:
      // Below the knee: at 525 rps the initial backlog lasts ~150 s, and at 700 rps
      // it grows through the whole arrival window (see README.md).
      p.qps = mix(420.0);
      p.cv = 1.0;
      break;
    case Workload::kBurstyMix:
      p.qps = mix(490.0);
      p.cv = 6.0;
      break;
    case Workload::kFaultStorm:
      p.qps = mix(420.0);
      p.cv = 2.0;
      p.faults = true;
      break;
  }
  return p;
}

bool TimedStream::Next(RequestSpec* out) {
  if (span_ == nullptr) {
    return inner_->Next(out);
  }
  const Clock::time_point start = Clock::now();
  const bool more = inner_->Next(out);
  span_->seconds += SecondsSince(start);
  ++span_->calls;
  return more;
}

double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void ProbedFlexPipe::Start() {
  start_time_ = Stamp::Now();
  FlexPipeSystem::Start();
}

void ProbedFlexPipe::OnArrival(Request* request) {
  if (!saw_arrival_) {
    saw_arrival_ = true;
    first_arrival_time_ = Stamp::Now();
  }
  if (arrival_span_ == nullptr) {
    FlexPipeSystem::OnArrival(request);
    return;
  }
  const Clock::time_point start = Clock::now();
  FlexPipeSystem::OnArrival(request);
  arrival_span_->seconds += SecondsSince(start);
  ++arrival_span_->calls;
}

ExperimentEnvConfig MakeEnvConfig(uint64_t seed) {
  ExperimentEnvConfig config;
  config.models = EvaluationModels();
  config.seed = seed;
  // stress_scale's shape: 128 + 2*192 + 4*128 = 1024 GPUs on 448 servers in 32 racks.
  config.cluster.servers_1gpu = 128;
  config.cluster.servers_2gpu = 192;
  config.cluster.servers_4gpu = 128;
  config.cluster.cpu_only_servers = 8;
  config.cluster.racks = 32;
  return config;
}

std::vector<FlexPipeSystem::ModelDeployment> MakeDeployments(ExperimentEnv& env,
                                                             const std::vector<double>& qps) {
  std::vector<FlexPipeSystem::ModelDeployment> deployments;
  for (size_t i = 0; i < qps.size(); ++i) {
    FlexPipeSystem::ModelDeployment d;
    d.ladder = &env.ladder(static_cast<int>(i));
    d.config.model_id = static_cast<int>(i);
    d.config.initial_stages = d.ladder->coarsest();
    d.config.target_peak_rps = qps[i];
    d.config.default_slo = kSlo;
    d.config.scaling.reclaim_idle = 45 * kSecond;
    d.config.fault_recovery = FaultRecoveryPolicy::kReform;
    // fig17's mitigating monitor. The monitor is shared and configured from the first
    // deployment; every deployment carries the same settings.
    d.config.health.enabled = true;
    d.config.health.ewma_alpha = 0.5;
    d.config.health.straggler_ratio = 1.25;
    d.config.health.hysteresis_windows = 3;
    d.config.health.quarantine_strikes = 1;
    d.config.health.reprobe_interval = 10 * kSecond;
    d.config.health.readmit_probes = 2;
    d.config.health.mitigate = true;
    d.config.health.max_quarantine_fraction = 0.25;
    deployments.push_back(d);
  }
  return deployments;
}

FaultPlan MakeFaultPlan(const Cluster& cluster, uint64_t seed) {
  Rng rng = Rng(seed).Child("perfbench-faults");
  const ThermalZoneId zone =
      static_cast<ThermalZoneId>(rng.UniformInt(0, cluster.thermal_zone_count() - 1));
  const RackId rack = static_cast<RackId>(rng.UniformInt(0, cluster.rack_count() - 1));
  FaultPlan plan = FaultPlan::ThrottleWave(
      kWarmup + 40 * kSecond, zone, cluster, /*multiplier=*/0.12, /*spread_factor=*/0.9,
      /*spread_interval=*/2 * kSecond, /*quench_after=*/8 * kSecond,
      /*recover_after=*/90 * kSecond, seed);
  FaultPlan churn = FaultPlan::FleetChurn(kWarmup + 80 * kSecond, /*spacing=*/2 * kSecond,
                                          /*fraction=*/0.03, cluster, seed);
  FaultPlan partition =
      FaultPlan::RackPartition(kWarmup + 120 * kSecond, rack, /*heal_after=*/20 * kSecond);
  plan.events.insert(plan.events.end(), churn.events.begin(), churn.events.end());
  plan.events.insert(plan.events.end(), partition.events.begin(), partition.events.end());
  return plan;
}

MergedRequestStream MakeStream(const WorkloadParams& params, uint64_t seed) {
  const std::vector<ModelSpec> models = EvaluationModels();
  std::vector<std::unique_ptr<RequestStream>> parts;
  for (size_t i = 0; i < models.size(); ++i) {
    WorkloadGenerator::Config config;
    config.model_index = static_cast<int>(i);
    config.slo = kSlo;
    config.lengths.prompt_median = 512;
    config.lengths.prompt_sigma = 0.9;
    config.lengths.prompt_max = models[i].context_window;
    config.lengths.output_median = 24;
    config.lengths.output_sigma = 0.7;
    config.lengths.output_max = 256;
    parts.push_back(std::make_unique<StreamingWorkloadSource>(StreamingWorkloadSource::WithCv(
        config, params.qps[i], params.cv, kArrivalWindow,
        Rng(Rng(seed).Child(models[i].name).seed()))));
  }
  return MergedRequestStream(std::move(parts));
}

namespace {

// Fleet sampler for traced runs. It only reads, so its one engine event per sample is
// its only effect on the simulation.
class FleetSampler {
 public:
  FleetSampler(Simulation* sim, ProbedFlexPipe* system, const Cluster* cluster, Span* span)
      : system_(system), cluster_(cluster), span_(span),
        gpu_seen_(static_cast<size_t>(cluster->gpu_count()), 0),
        task_(std::make_unique<PeriodicTask>(sim, kSampleInterval, [this] { Sample(); })) {}

  void Stop() { task_->Cancel(); }

  int64_t samples() const { return samples_; }
  double mean_stages() const { return instances_ > 0 ? stages_ / instances_ : 0.0; }
  double queue_depth_mean() const { return Mean(queue_); }
  double live_instances_mean() const { return Mean(live_); }
  double mean_sm_util() const { return Mean(sm_util_); }
  int peak_distinct_gpus() const { return peak_distinct_gpus_; }

 private:
  double Mean(double sum) const {
    return samples_ > 0 ? sum / static_cast<double>(samples_) : 0.0;
  }

  void Sample() {
    const Clock::time_point start = Clock::now();
    ++samples_;
    ++stamp_;
    int distinct = 0;
    const std::vector<PipelineInstance*>& instances = system_->router().instances();
    for (const PipelineInstance* instance : instances) {
      stages_ += instance->num_stages();
      for (GpuId g : instance->gpus()) {
        uint32_t& seen = gpu_seen_[static_cast<size_t>(g)];
        if (seen != stamp_) {
          seen = stamp_;
          ++distinct;
        }
      }
    }
    instances_ += static_cast<double>(instances.size());
    peak_distinct_gpus_ = std::max(peak_distinct_gpus_, distinct);
    queue_ += system_->router().queue_length();
    live_ += system_->live_instances();
    sm_util_ += cluster_->MeanSmUtilization();
    span_->seconds += SecondsSince(start);
    ++span_->calls;
  }

  ProbedFlexPipe* system_;
  const Cluster* cluster_;
  Span* span_;
  std::vector<uint32_t> gpu_seen_;
  uint32_t stamp_ = 0;
  int64_t samples_ = 0;
  double stages_ = 0.0;
  double instances_ = 0.0;
  double queue_ = 0.0;
  double live_ = 0.0;
  double sm_util_ = 0.0;
  int peak_distinct_gpus_ = 0;
  std::unique_ptr<PeriodicTask> task_;
};

}  // namespace

uint64_t ReplicaSeed(uint64_t seed, int replica) {
  return Rng(seed).Child("replica-" + std::to_string(replica)).seed();
}

RunResult RunOnce(Workload workload, uint64_t seed, bool traced) {
  const WorkloadParams params = ParamsFor(workload);
  Span arrival_span, loss_span, next_span, sampler_span;
  RunResult result;

  const Stamp workload_start = Stamp::Now();
  ExperimentEnv env(MakeEnvConfig(seed));
  const Stamp env_built = Stamp::Now();
  auto system = std::make_unique<ProbedFlexPipe>(
      env.Context(), MakeDeployments(env, params.qps), traced ? &arrival_span : nullptr);
  result.env_s = env_built.cpu - workload_start.cpu;
  result.system_s = CpuSeconds() - env_built.cpu;

  FaultInjector injector(&env.sim(), &env.cluster());
  ProbedFlexPipe* sys = system.get();
  Span* loss = traced ? &loss_span : nullptr;
  injector.AddGpuLossListener([sys, loss](const std::vector<GpuId>& lost) {
    if (loss == nullptr) {
      sys->OnGpusLost(lost);
      return;
    }
    const Clock::time_point start = Clock::now();
    sys->OnGpusLost(lost);
    loss->seconds += SecondsSince(start);
    ++loss->calls;
  });
  if (params.faults) {
    injector.Arm(MakeFaultPlan(env.cluster(), seed));
  }

  std::unique_ptr<FleetSampler> sampler;
  if (traced) {
    sampler = std::make_unique<FleetSampler>(&env.sim(), sys, &env.cluster(), &sampler_span);
  }

  // Reserved slot-seconds and busy time are read when the arrivals end, so the idle
  // drain does not dilute them.
  double slot_seconds = 0.0;
  TimeNs busy_at_end = 0;
  env.sim().ScheduleAt(kWarmup + kArrivalWindow, [sys, &env, &slot_seconds, &busy_at_end] {
    slot_seconds = sys->GpuSecondsReserved(env.sim().now());
    busy_at_end = sys->TotalBusyAll();
  });

  MergedRequestStream stream = MakeStream(params, seed);
  TimedStream timed_stream(&stream, traced ? &next_span : nullptr);
  WorkloadHarness harness(env, {sys});
  const Clock::time_point harness_start = Clock::now();
  StreamingRunReport report =
      harness.RunPhase(timed_stream, RunOptions{.drain_grace = kDrainGrace, .warmup = kWarmup});
  const Stamp run_end = Stamp::Now();
  result.harness_wall_s =
      std::chrono::duration<double>(run_end.wall - harness_start).count();
  if (sampler != nullptr) {
    sampler->Stop();
  }
  harness.Finish();

  if (!sys->saw_arrival()) {
    result.failures.push_back("no arrival was injected");
    return result;
  }
  const Stamp& first = sys->first_arrival_time();
  result.setup_s = first.cpu - workload_start.cpu;
  result.run_s = run_end.cpu - first.cpu;
  result.deploy_s = first.cpu - sys->start_time().cpu;
  result.run_wall_s = std::chrono::duration<double>(run_end.wall - first.wall).count();

  // -- Correctness checks ---------------------------------------------------------
  const MetricsCollector& m = sys->metrics();
  const ServingSystemBase::FailureStats& fs = sys->failure_stats();
  const int64_t submitted = harness.total_submitted();
  const int64_t completed = m.completed();
  const int64_t live = static_cast<int64_t>(harness.pool().live());
  char line[256];
  if (submitted != completed + fs.requests_shed + live) {
    std::snprintf(line, sizeof(line),
                  "ledger: submitted %lld != completed %lld + shed %lld + live %lld",
                  static_cast<long long>(submitted), static_cast<long long>(completed),
                  static_cast<long long>(fs.requests_shed), static_cast<long long>(live));
    result.failures.push_back(line);
  }
  if (live != 0) {
    std::snprintf(line, sizeof(line), "drain: %lld requests still live",
                  static_cast<long long>(live));
    result.failures.push_back(line);
  }
  for (const std::string& violation :
       SimulationAuditor::AuditAll(env.sim(), env.cluster(), {sys})) {
    result.failures.push_back("audit: " + violation);
  }
  const HealthMonitor* health = sys->health_monitor();
  const int health_flags = health != nullptr ? health->flags_raised() : 0;
  if (!params.faults && health_flags != 0) {
    std::snprintf(line, sizeof(line), "health: %d flags on healthy hardware", health_flags);
    result.failures.push_back(line);
  }

  // -- Simulated results ------------------------------------------------------------
  result.submitted = submitted;
  result.completed = completed;
  result.within_slo = m.completed_within_slo();
  result.stage_slot_seconds = slot_seconds;
  result.latency = m.latency_histogram();
  result.ttft = m.prefill_histogram();

  // -- Layer counts from getters --------------------------------------------------
  const int64_t sampler_events = sampler != nullptr ? sampler->samples() : 0;
  const double events = static_cast<double>(env.sim().executed_events()) -
                        static_cast<double>(sampler_events);
  const double done = static_cast<double>(std::max<int64_t>(completed, 1));
  const LatencyBreakdown breakdown = m.MeanBreakdown();
  const double cold = static_cast<double>(sys->cold_loads());
  const double warm = static_cast<double>(sys->warm_loads());
  result.counts = {
      {"sim.events", events},
      {"sim.events_per_req", events / done},
      {"runtime.router_max_queue", static_cast<double>(sys->router().max_queue_length())},
      {"runtime.peak_live_requests", static_cast<double>(report.peak_live_requests)},
      {"runtime.stage_busy_s", ToSeconds(sys->TotalBusyAll())},
      {"runtime.stage_stall_s", ToSeconds(sys->TotalStallAll())},
      {"runtime.stage_util", slot_seconds > 0.0 ? ToSeconds(busy_at_end) / slot_seconds : 0.0},
      {"runtime.queue_mean_s", breakdown.queue_s},
      {"runtime.exec_mean_s", breakdown.exec_s},
      {"runtime.comm_mean_s", breakdown.comm_s},
      {"core.refactors", static_cast<double>(sys->refactor_count())},
      {"core.refactor_pause_s", ToSeconds(sys->total_refactor_pause())},
      {"core.kv_migrated_gib", ToGiB(sys->kv_migrated_bytes())},
      {"core.cold_loads", cold},
      {"core.warm_loads", warm},
      {"core.warm_load_ratio", cold + warm > 0.0 ? warm / (cold + warm) : 0.0},
      {"core.alloc_wait_mean_s", sys->MeanAllocationWaitSec()},
      {"core.peak_stage_slots", static_cast<double>(sys->peak_reserved_gpus())},
      {"core.instances_lost", static_cast<double>(fs.instances_lost)},
      {"core.requeued", static_cast<double>(fs.requests_requeued)},
      {"core.resumed", static_cast<double>(fs.requests_resumed)},
      {"core.restarted", static_cast<double>(fs.requests_restarted)},
      {"core.kv_invalidated_tokens", static_cast<double>(sys->kv_invalidated_tokens())},
      {"core.health_flags", static_cast<double>(health_flags)},
      {"core.quarantines",
       static_cast<double>(health != nullptr ? health->quarantine_count() : 0)},
      {"core.health_migrations", static_cast<double>(sys->health_migrations())},
      {"cluster.faults_fired", static_cast<double>(injector.faults_fired())},
      {"cluster.gpus_lost", static_cast<double>(injector.gpus_lost())},
  };
  // The sampler keeps one event pending, so a traced run's arena can be one slot
  // larger: the arena size is reported but not compared across the two kinds of run.
  result.traced = {{"sim.arena_slots", static_cast<double>(env.sim().arena_slots())}};
  if (traced) {
    const double children =
        arrival_span.seconds + loss_span.seconds + next_span.seconds + sampler_span.seconds;
    result.traced.insert(
        result.traced.end(),
        {
            {"sim.dispatch_self_s", result.harness_wall_s - children},
            {"core.on_arrival_s", arrival_span.seconds},
            {"core.on_arrival_calls", static_cast<double>(arrival_span.calls)},
            {"core.on_gpus_lost_s", loss_span.seconds},
            {"core.on_gpus_lost_calls", static_cast<double>(loss_span.calls)},
            {"trace.next_s", next_span.seconds},
            {"trace.next_calls", static_cast<double>(next_span.calls)},
            {"runtime.mean_stages", sampler->mean_stages()},
            {"runtime.queue_depth_mean", sampler->queue_depth_mean()},
            {"core.live_instances_mean", sampler->live_instances_mean()},
            {"cluster.peak_distinct_gpus", static_cast<double>(sampler->peak_distinct_gpus())},
            {"cluster.mean_sm_util", sampler->mean_sm_util()},
            {"sampler.samples", static_cast<double>(sampler->samples())},
            {"sampler.self_s", sampler_span.seconds},
        });
  }
  return result;
}

Named RunResult::Signature() const {
  Named out = {
      {"submitted", static_cast<double>(submitted)},
      {"completed", static_cast<double>(completed)},
      {"within_slo", static_cast<double>(within_slo)},
      {"stage_slot_seconds", stage_slot_seconds},
      {"latency_count", static_cast<double>(latency.count())},
      {"latency_mean", latency.mean()},
      {"latency_p50", latency.Percentile(50.0)},
      {"latency_p999", latency.Percentile(99.9)},
      {"latency_max", latency.max()},
      {"ttft_count", static_cast<double>(ttft.count())},
      {"ttft_mean", ttft.mean()},
      {"ttft_p50", ttft.Percentile(50.0)},
      {"ttft_p999", ttft.Percentile(99.9)},
      {"ttft_max", ttft.max()},
  };
  out.insert(out.end(), counts.begin(), counts.end());
  return out;
}

Named PooledSimMetrics(const std::vector<RunResult>& replicas) {
  FLEXPIPE_CHECK(!replicas.empty());
  Histogram latency = replicas.front().latency;
  Histogram ttft = replicas.front().ttft;
  int64_t submitted = 0, completed = 0, within_slo = 0;
  double slot_seconds = 0.0;
  for (size_t i = 0; i < replicas.size(); ++i) {
    const RunResult& r = replicas[i];
    if (i > 0) {
      latency.Merge(r.latency);
      ttft.Merge(r.ttft);
    }
    submitted += r.submitted;
    completed += r.completed;
    within_slo += r.within_slo;
    slot_seconds += r.stage_slot_seconds;
  }
  const double sub = static_cast<double>(std::max<int64_t>(submitted, 1));
  const double done = static_cast<double>(std::max<int64_t>(completed, 1));
  return {
      {"sim_latency_p50_s", latency.Percentile(50.0)},
      {"sim_latency_p999_s", latency.Percentile(99.9)},
      {"sim_latency_samples", static_cast<double>(latency.count())},
      {"sim_ttft_p50_s", ttft.Percentile(50.0)},
      {"sim_ttft_p999_s", ttft.Percentile(99.9)},
      {"sim_ttft_samples", static_cast<double>(ttft.count())},
      {"sim_slo_attainment", static_cast<double>(within_slo) / sub},
      {"sim_stage_slot_s_per_req", slot_seconds / done},
      {"sim_completed_frac", static_cast<double>(completed) / sub},
      {"sim_failed_frac", static_cast<double>(submitted - completed) / sub},
      {"sim_submitted", static_cast<double>(submitted)},
  };
}

namespace {

struct StormContext {
  Simulation sim;
  uint64_t remaining = 0;
  uint64_t lcg = 0x9E3779B97F4A7C15ull;
  std::vector<EventId> watchdogs;

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
    sim.Schedule(kMillisecond + static_cast<TimeNs>(Next() % 2000) * kMicrosecond,
                 [this, chain] { Step(chain); });
  }
};

}  // namespace

double CalibrationSeconds() {
  constexpr size_t kTableMask = (size_t{1} << 20) - 1;  // 2^20 uint64 = 8 MiB
  uint64_t lcg = 0x9E3779B97F4A7C15ull;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 11;
  };
  std::vector<uint64_t> table(kTableMask + 1);
  for (uint64_t& v : table) {
    v = next();
  }
  std::vector<uint64_t> heap;
  heap.reserve(1 << 17);
  const double start = CpuSeconds();
  for (int i = 0; i < (1 << 17); ++i) {
    heap.push_back(next());
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  uint64_t acc = 0;
  for (int i = 0; i < 300'000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const uint64_t top = heap.back();
    const uint64_t r = table[(top ^ acc) & kTableMask];
    acc += r;
    heap.back() = top + (r & 0xFFFF);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double seconds = CpuSeconds() - start;
  // Publish the result so the loop cannot be optimized away.
  volatile uint64_t sink = acc;
  (void)sink;
  return seconds;
}

double EngineNsPerEvent(uint64_t events, uint64_t slots) {
  StormContext ctx;
  // Half the pending slots are chains (each also holds a watchdog), the rest a
  // far-future backlog that stays pending until the chains drain.
  const size_t chains = std::max<size_t>(1, slots / 4);
  const size_t backlog = slots > 2 * chains ? slots - 2 * chains : 0;
  ctx.remaining = events;
  ctx.watchdogs.assign(chains, 0);
  for (size_t i = 0; i < backlog; ++i) {
    ctx.sim.ScheduleAt(3600 * kSecond + static_cast<TimeNs>(ctx.Next() % 600'000) * kMillisecond,
                       [] {});
  }
  for (size_t c = 0; c < chains; ++c) {
    const uint32_t chain = static_cast<uint32_t>(c);
    ctx.sim.Schedule(static_cast<TimeNs>(c + 1) * kMicrosecond,
                     [&ctx, chain] { ctx.Step(chain); });
  }
  const Clock::time_point start = Clock::now();
  ctx.sim.RunUntilIdle();
  const double seconds = SecondsSince(start);
  return seconds * 1e9 / static_cast<double>(std::max<uint64_t>(ctx.sim.executed_events(), 1));
}

}  // namespace perfbench
