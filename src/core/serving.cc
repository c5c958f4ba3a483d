#include "src/core/serving.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/macros.h"
#include "src/sim/auditor.h"

namespace flexpipe {

ServingSystemBase::ServingSystemBase(const SystemContext& ctx, std::string name,
                                     TimeNs default_slo)
    : ctx_(ctx),
      name_(std::move(name)),
      router_(ctx.sim),
      metrics_(default_slo),
      placement_registry_(ctx.cluster != nullptr ? ctx.cluster->gpu_count() : 0) {
  FLEXPIPE_CHECK(ctx.sim != nullptr && ctx.cluster != nullptr && ctx.network != nullptr &&
                 ctx.transfer != nullptr && ctx.allocator != nullptr &&
                 ctx.cost_model != nullptr);
  instance_config_.gpu_memory = ctx.cluster->gpu(0).memory_capacity();
  last_gpu_change_ = ctx.sim->now();
}

void ServingSystemBase::OnArrival(Request* request) {
  FLEXPIPE_CHECK(request != nullptr);
  FLEXPIPE_CHECK_MSG(served_models_.count(request->model_id()) > 0,
                     "request targets a model this system does not serve");
  router_.Submit(request);
}

void ServingSystemBase::CollectAuditViolations(std::vector<std::string>* out) const {
  AuditReport router = SimulationAuditor::AuditRouter(router_);
  out->insert(out->end(), router.begin(), router.end());
  AuditReport registry = SimulationAuditor::AuditPlacementRegistry(*this);
  out->insert(out->end(), registry.begin(), registry.end());
  AuditReport domains = SimulationAuditor::AuditFailureDomains(*ctx_.cluster, *this);
  out->insert(out->end(), domains.begin(), domains.end());
}

void ServingSystemBase::NoteGpuDelta(int delta) {
  TimeNs now = ctx_.sim->now();
  gpu_seconds_integral_ += static_cast<double>(reserved_gpus_) * ToSeconds(now - last_gpu_change_);
  last_gpu_change_ = now;
  reserved_gpus_ += delta;
  FLEXPIPE_CHECK(reserved_gpus_ >= 0);
  peak_reserved_gpus_ = std::max(peak_reserved_gpus_, reserved_gpus_);
}

double ServingSystemBase::GpuSecondsReserved(TimeNs now) const {
  return gpu_seconds_integral_ +
         static_cast<double>(reserved_gpus_) * ToSeconds(now - last_gpu_change_);
}

TimeNs ServingSystemBase::TotalBusyAll() const {
  TimeNs total = retired_busy_;
  for (const InstanceRecord& r : records_) {
    if (!r.released) {
      total += r.instance->TotalBusy();
    }
  }
  return total;
}

TimeNs ServingSystemBase::TotalStallAll() const {
  TimeNs total = retired_stall_;
  for (const InstanceRecord& r : records_) {
    if (!r.released) {
      total += r.instance->TotalStall();
    }
  }
  return total;
}

double ServingSystemBase::MeanGpuUtilization(TimeNs now) const {
  double reserved = GpuSecondsReserved(now);
  if (reserved <= 0.0) {
    return 0.0;
  }
  return ToSeconds(TotalBusyAll()) / reserved;
}

int ServingSystemBase::live_instances() const {
  int n = 0;
  for (const InstanceRecord& r : records_) {
    if (!r.released) {
      ++n;
    }
  }
  return n;
}

int ServingSystemBase::ActiveOrLoadingForModel(int model_id) const {
  // Counts provisioning instances too (they only join the router once loading starts),
  // so controllers do not double-launch while pods bind.
  int n = 0;
  for (const InstanceRecord& r : records_) {
    if (r.released || r.model_id != model_id) {
      continue;
    }
    InstanceState s = r.instance->state();
    if (s == InstanceState::kActive || s == InstanceState::kLoading) {
      ++n;
    }
  }
  return n;
}

PipelineInstance* ServingSystemBase::LaunchInstance(const PipelinePlan& plan, int model_id,
                                                    std::vector<GpuId> gpus,
                                                    std::vector<bool> warm_stages,
                                                    double load_slowdown,
                                                    TimeNs provisioning_delay) {
  FLEXPIPE_CHECK(static_cast<int>(gpus.size()) == plan.num_stages());
  InstanceRecord record;
  record.model_id = model_id;
  record.gpus = gpus;
  record.launched_at = ctx_.sim->now();
  record.reserved_bytes.reserve(gpus.size());
  for (int s = 0; s < plan.num_stages(); ++s) {
    Bytes bytes = static_cast<Bytes>(
        static_cast<double>(plan.stages[static_cast<size_t>(s)].param_bytes) *
        param_reservation_factor_);
    ctx_.cluster->gpu(gpus[static_cast<size_t>(s)]).Reserve(bytes, record.sm_share);
    placement_registry_.Add(gpus[static_cast<size_t>(s)], model_id);
    record.reserved_bytes.push_back(bytes);
  }
  NoteGpuDelta(plan.num_stages());

  InstanceConfig tagged_config = instance_config_;
  tagged_config.model_id = model_id;
  auto instance = std::make_unique<PipelineInstance>(ctx_.sim, next_instance_id_++, plan,
                                                     std::move(gpus), ctx_.cost_model,
                                                     ctx_.network, tagged_config);
  PipelineInstance* raw = instance.get();
  raw->set_completion_callback([this](Request* request) {
    metrics_.OnComplete(*request);
    OnRequestComplete(request);
    if (release_hook_) {
      release_hook_(request);  // must run last: the hook may recycle the storage
    }
  });
  // Capacity freed on this instance can only unblock its own model's queue.
  raw->set_pump_callback([this, model_id] { router_.PumpModel(model_id); });
  // Queued requests flow in the moment the fleet gains capacity.
  raw->set_activation_callback([this, model_id] { router_.PumpModel(model_id); });

  bool any_warm = false;
  for (bool w : warm_stages) {
    any_warm = any_warm || w;
  }
  if (any_warm) {
    ++warm_loads_;
  } else {
    ++cold_loads_;
  }
  alloc_wait_s_.Add(ToSeconds(provisioning_delay));

  double effective_slowdown = load_slowdown * load_speed_factor_;
  ctx_.sim->Schedule(provisioning_delay, [this, raw, warm = std::move(warm_stages),
                                          effective_slowdown] {
    if (raw->state() != InstanceState::kLoading) {
      return;  // released before provisioning completed
    }
    raw->BeginLoading(warm, effective_slowdown);
    router_.RegisterInstance(raw);
  });

  record.instance = std::move(instance);
  records_.push_back(std::move(record));
  return raw;
}

PipelineInstance* ServingSystemBase::LaunchViaAllocator(const PipelinePlan& plan, int model_id,
                                                        PlacementPolicy policy,
                                                        bool distinct_servers,
                                                        double load_slowdown) {
  AllocationRequest request;
  request.gpu_count = plan.num_stages();
  request.bytes_per_gpu = plan.MaxStageParams();
  request.distinct_servers = distinct_servers;
  request.policy = policy;
  AllocationResult result = ctx_.allocator->Allocate(request);
  if (!result.success) {
    return nullptr;
  }
  // The allocator reserved a uniform worst-case block per GPU; rebalance to exact
  // per-stage sizes so cluster accounting matches the plan.
  for (size_t i = 0; i < result.gpus.size(); ++i) {
    ctx_.cluster->gpu(result.gpus[i]).Release(request.bytes_per_gpu, request.sm_per_gpu);
  }
  return LaunchInstance(plan, model_id, result.gpus, {}, load_slowdown,
                        result.provisioning_delay);
}

void ServingSystemBase::ReleaseInstance(PipelineInstance* instance) {
  InstanceRecord* record = FindRecord(instance->id());
  FLEXPIPE_CHECK(record != nullptr && !record->released);
  router_.DeregisterInstance(instance->id());
  retired_busy_ += instance->TotalBusy();
  retired_stall_ += instance->TotalStall();
  for (size_t i = 0; i < record->gpus.size(); ++i) {
    ctx_.cluster->gpu(record->gpus[i]).Release(record->reserved_bytes[i], record->sm_share);
    placement_registry_.Remove(record->gpus[i], record->model_id);
    if (ctx_.fragmentation != nullptr) {
      // Serverless reality: released GPUs are grabbed by competing workloads (§3.1).
      ctx_.fragmentation->MaybeReoccupy(record->gpus[i]);
    }
  }
  NoteGpuDelta(-static_cast<int>(record->gpus.size()));
  instance->MarkReleased();
  record->released = true;
  OnInstanceReleased(instance->id());
}

std::vector<PipelineInstance*> ServingSystemBase::UnreleasedInstancesOn(
    const std::vector<GpuId>& lost) {
  std::vector<PipelineInstance*> victims;
  for (InstanceRecord& record : records_) {
    if (record.released) {
      continue;
    }
    for (GpuId g : record.gpus) {
      if (std::find(lost.begin(), lost.end(), g) != lost.end()) {
        victims.push_back(record.instance.get());
        break;
      }
    }
  }
  return victims;
}

void ServingSystemBase::FailInstance(PipelineInstance* instance, bool restart_decoding,
                                     std::vector<Request*>* displaced) {
  ++failure_stats_.instances_lost;
  // The cluster is mutated before fault listeners run, so "every stage unusable right
  // now" identifies instances a single correlated fault took out whole — as opposed to
  // partial losses (re-formable) or healthy instances razed by teardown policy.
  bool whole_pipeline = true;
  for (GpuId g : instance->gpus()) {
    whole_pipeline = whole_pipeline && !ctx_.cluster->GpuUsable(g);
  }
  if (whole_pipeline) {
    ++failure_stats_.whole_pipeline_losses;
  }
  for (Request* r : instance->FailNow()) {
    ApplyDecodePolicy(r, restart_decoding);
    displaced->push_back(r);
  }
  ReleaseInstance(instance);
}

void ServingSystemBase::ApplyDecodePolicy(Request* request, bool restart_decoding) {
  if (request->phase != RequestPhase::kDecoding) {
    return;
  }
  if (restart_decoding) {
    request->tokens_generated = 0;
    request->first_token_time = -1;
    request->recompute_tokens = 0;
    ++failure_stats_.requests_restarted;
  } else {
    // Token ids live on the host; only the KV died. The next prompt pass rebuilds it
    // (prompt + recompute tokens) and decode resumes where it left off.
    request->recompute_tokens = request->tokens_generated;
    ++failure_stats_.requests_resumed;
  }
  request->phase = RequestPhase::kQueued;
}

void ServingSystemBase::RequeueDisplaced(std::vector<Request*> displaced) {
  if (displaced.empty()) {
    return;
  }
  failure_stats_.requests_requeued += static_cast<int64_t>(displaced.size());
  router_.RequeueFront(displaced);
}

void ServingSystemBase::ShedRequest(Request* request) {
  FLEXPIPE_CHECK(request != nullptr);
  ++failure_stats_.requests_shed;
  if (release_hook_) {
    release_hook_(request);  // hands the storage back; never touch the pointer again
  }
}

void ServingSystemBase::OnGpusLost(const std::vector<GpuId>& lost) {
  std::vector<PipelineInstance*> victims = UnreleasedInstancesOn(lost);
  std::vector<Request*> displaced;
  for (PipelineInstance* instance : victims) {
    FailInstance(instance, /*restart_decoding=*/true, &displaced);
  }
  RequeueDisplaced(std::move(displaced));
}

ServingSystemBase::InstanceRecord* ServingSystemBase::FindRecord(int instance_id) {
  for (InstanceRecord& r : records_) {
    if (r.instance->id() == instance_id) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace flexpipe
