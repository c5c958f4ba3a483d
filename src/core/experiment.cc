#include "src/core/experiment.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "src/common/macros.h"
#include "src/sim/auditor.h"

namespace flexpipe {

ExperimentEnv::ExperimentEnv(const ExperimentEnvConfig& config)
    : config_(config),
      cluster_(config.cluster),
      network_(&cluster_, config.network),
      transfer_(&sim_, &network_),
      allocator_(&cluster_, config.allocator, Rng(config.seed).Child("allocator").seed()),
      fragmentation_(&cluster_, config.fragmentation, Rng(config.seed).Child("frag").seed()),
      cost_model_(config.cost) {
  if (config.apply_fragmentation) {
    fragmentation_.ApplySnapshot();
  }
  Profiler profiler(&cost_model_, Profiler::Config{});
  Partitioner partitioner(config.partitioner);
  for (const ModelSpec& spec : config.models) {
    ComputationGraph graph = ComputationGraph::Build(spec);
    ModelProfile profile = profiler.Profile(graph);
    ladders_.emplace(spec.name, partitioner.BuildLadder(profile));
    model_order_.push_back(spec.name);
  }
}

const GranularityLadder& ExperimentEnv::ladder(const std::string& model_name) const {
  auto it = ladders_.find(model_name);
  FLEXPIPE_CHECK_MSG(it != ladders_.end(), "no ladder for model");
  return it->second;
}

const GranularityLadder& ExperimentEnv::ladder(int model_index) const {
  FLEXPIPE_CHECK(model_index >= 0 &&
                 model_index < static_cast<int>(model_order_.size()));
  return ladder(model_order_[static_cast<size_t>(model_index)]);
}

SystemContext ExperimentEnv::Context() {
  SystemContext ctx;
  ctx.sim = &sim_;
  ctx.cluster = &cluster_;
  ctx.network = &network_;
  ctx.transfer = &transfer_;
  ctx.allocator = &allocator_;
  ctx.cost_model = &cost_model_;
  ctx.fragmentation = &fragmentation_;
  ctx.seed = config_.seed;
  return ctx;
}

void ExperimentEnv::StartChurn() {
  if (churn_task_ != nullptr || config_.churn_interval <= 0 || config_.churn_fraction <= 0) {
    return;
  }
  churn_task_ = std::make_unique<PeriodicTask>(&sim_, config_.churn_interval, [this] {
    fragmentation_.ChurnStep(config_.churn_fraction);
  });
}

Request* RequestPool::Acquire(const RequestSpec& spec, TimeNs warmup) {
  Request* request;
  if (!free_.empty()) {
    request = free_.back();
    free_.pop_back();
  } else {
    slab_.emplace_back();
    request = &slab_.back();
  }
  *request = Request{};
  request->spec = spec;
  request->spec.arrival += warmup;
  ++live_;
  peak_live_ = std::max(peak_live_, live_);
  return request;
}

void RequestPool::Release(Request* request) {
  FLEXPIPE_CHECK(live_ > 0);
  --live_;
  free_.push_back(request);
}

WorkloadHarness::WorkloadHarness(ExperimentEnv& env,
                                 std::vector<ServingSystemBase*> systems_by_model)
    : env_(env), systems_(std::move(systems_by_model)) {
  FLEXPIPE_CHECK(!systems_.empty());
}

WorkloadHarness::~WorkloadHarness() {
  // The hooks capture the pool by address; never leave them dangling.
  Finish();
}

StreamingRunReport WorkloadHarness::RunPhase(RequestStream& stream,
                                             const RunOptions& options) {
  FLEXPIPE_CHECK_MSG(!finished_, "RunPhase after Finish");
  if (!started_) {
    started_ = true;
    for (ServingSystemBase* system : systems_) {
      system->set_request_release_hook(
          [this](Request* request) { pool_.Release(request); });
      system->Start();
    }
    if (options.enable_churn) {
      env_.StartChurn();
    }
  }

  // One self-rescheduling arrival event: fire the pending request, draw the next one
  // from the stream, re-arm. The engine never sees more than a single workload event,
  // and the {driver} capture fits std::function's inline buffer — the per-arrival path
  // allocates nothing beyond pool growth to the in-flight high-water mark.
  struct ArrivalDriver {
    Simulation* sim;
    RequestStream* stream;
    const std::vector<ServingSystemBase*>* systems;
    RequestPool* pool;
    TimeNs warmup;
    RequestSpec next_spec;
    // Streams number their requests densely from 1, so a later phase's stream would
    // reissue ids still live from an earlier phase — and id collisions corrupt every
    // id-keyed structure downstream (KV residency, recovery masks). Rebasing by the
    // highest id any earlier phase produced keeps ids unique across the harness's
    // lifetime; the first phase rebases by 0, bit-identical to the single-phase runner.
    RequestId id_base = 0;
    RequestId max_id = 0;
    bool has_next = false;
    int64_t submitted = 0;
    EventId pending = 0;

    void Arm() {
      pending = sim->ScheduleAt(next_spec.arrival + warmup, [this] { Fire(); });
    }

    void Fire() {
      pending = 0;
      Request* request = pool->Acquire(next_spec, warmup);
      request->spec.id += id_base;
      max_id = std::max(max_id, request->spec.id);
      ++submitted;
      ServingSystemBase* system;
      if (systems->size() == 1) {
        system = systems->front();
      } else {
        int model = request->spec.model_index;
        FLEXPIPE_CHECK(model >= 0 && model < static_cast<int>(systems->size()));
        system = (*systems)[static_cast<size_t>(model)];
      }
      has_next = stream->Next(&next_spec);
      if (has_next) {
        Arm();
      }
      system->OnArrival(request);
    }
  };

  Simulation& sim = env_.sim();
  ArrivalDriver driver{&sim, &stream, &systems_, &pool_, options.warmup, RequestSpec{},
                       /*id_base=*/max_id_seen_};
  driver.has_next = stream.Next(&driver.next_spec);
  if (driver.has_next) {
    driver.Arm();
  }

  if (auditor_ == nullptr && kAuditBuild && options.audit_interval > 0) {
    auditor_ = std::make_unique<PeriodicSimulationAuditor>(&sim, &env_.cluster(), systems_,
                                                           options.audit_interval);
  }

  // The stream's end time bounds every arrival, so the default horizon is known before
  // any request is drawn.
  TimeNs horizon = options.horizon;
  if (horizon == 0) {
    horizon = stream.end_time() + options.warmup + options.drain_grace;
  }
  sim.RunUntil(horizon);
  // A custom horizon can cut the phase before the stream drains; drop the armed arrival
  // so nothing fires into this frame after it returns. Requests still queued or in
  // flight stay live in the shared pool — a later phase (or the drain) finishes them.
  if (driver.pending != 0) {
    sim.Cancel(driver.pending);
  }

  total_submitted_ += driver.submitted;
  max_id_seen_ = std::max(max_id_seen_, driver.max_id);
  StreamingRunReport report;
  report.submitted = driver.submitted;
  report.ran_until = sim.now();
  report.warmup = options.warmup;
  report.peak_live_requests = pool_.peak_live();
  report.audit_events = auditor_ ? auditor_->audits_run() : 0;
  return report;
}

void WorkloadHarness::Finish() {
  if (finished_ || !started_) {
    finished_ = true;
    return;
  }
  finished_ = true;
  for (ServingSystemBase* system : systems_) {
    system->Finish();
    system->set_request_release_hook(nullptr);
  }
}

StreamingRunReport RunStreamingWorkload(ExperimentEnv& env,
                                        std::vector<ServingSystemBase*> systems_by_model,
                                        RequestStream& stream, const RunOptions& options) {
  WorkloadHarness harness(env, std::move(systems_by_model));
  StreamingRunReport report = harness.RunPhase(stream, options);
  harness.Finish();
  return report;
}

StreamingRunReport RunStreamingWorkload(ExperimentEnv& env, ServingSystemBase& system,
                                        RequestStream& stream, const RunOptions& options) {
  return RunStreamingWorkload(env, std::vector<ServingSystemBase*>{&system}, stream,
                              options);
}

}  // namespace flexpipe
