#include "src/core/flexpipe_system.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/macros.h"
#include "src/sim/auditor.h"

namespace flexpipe {

namespace {

// Launch pacing: at most this many scale-out launches (and stuck-loader restarts) per
// model per control tick.
constexpr int kMaxLaunchesPerTick = 4;
// Relaunch backoff bounds (see LaunchWithRetry).
constexpr TimeNs kRetryBackoff = 1 * kSecond;
constexpr TimeNs kRelaunchBackoffCap = 30 * kSecond;
// Damping: minimum spacing between granularity transitions (noisy ν_t estimates at
// high CV would otherwise cause 8<->16 flapping, each costing a migration).
constexpr TimeNs kRefactorCooldown = 45 * kSecond;
// How far ahead the intensity gradient projects demand.
constexpr double kDemandLeadS = 2.0;
// Stuck-loader restart: an instance whose load was priced at a contention peak keeps
// that price for its whole load, so once the peak clears it can lag a fresh launch by
// minutes. Each tick, loaders whose remaining load exceeds kStuckLoaderFactor x the
// current fresh-load estimate plus kStuckLoaderMargin are released and relaunched at
// today's contention, the simulated analogue of killing a pod stuck in init. A loader
// on genuinely slow hardware (fail-slow link) is supposed to lag the estimate, so after
// kStuckLoaderMaxRestarts restarts it is left to finish at its hardware's pace.
constexpr double kStuckLoaderFactor = 2.0;
constexpr TimeNs kStuckLoaderMargin = 10 * kSecond;
constexpr int kStuckLoaderMaxRestarts = 2;
// Brownout admission classes; class 0 is never shed, so at least two are needed.
constexpr int kBrownoutPriorityLevels = 4;
static_assert(kBrownoutPriorityLevels >= 2);
// Health-evacuation pacing per control tick (see ProcessEvacuations).
constexpr int kMaxEvacuationsPerTick = 1;

// Admission class of `request` in [0, kBrownoutPriorityLevels): spec.priority when
// assigned, else derived deterministically from the request id.
int PriorityClass(const Request& request) {
  int cls = request.spec.priority >= 0
                ? request.spec.priority
                : static_cast<int>(request.spec.id %
                                   static_cast<RequestId>(kBrownoutPriorityLevels));
  return std::min(cls, kBrownoutPriorityLevels - 1);
}

std::vector<FlexPipeSystem::ModelDeployment> SingleDeployment(
    const GranularityLadder* ladder, const FlexPipeConfig& config) {
  FlexPipeSystem::ModelDeployment deployment;
  deployment.ladder = ladder;
  deployment.config = config;
  return {deployment};
}


}  // namespace

FlexPipeSystem::ModelContext::ModelContext(const SystemContext& ctx,
                                           const GranularityLadder* ladder_in,
                                           const FlexPipeConfig& config_in)
    : ladder(ladder_in),
      config(config_in),
      rng(Rng(ctx.seed).Child("flexpipe-" + std::to_string(config_in.model_id))),
      cv_monitor(),
      granularity(ladder_in, ctx.cost_model, ctx.network, config_in.workload,
                  config_in.granularity) {
  FLEXPIPE_CHECK(ladder_in != nullptr);
  FLEXPIPE_CHECK(!ladder_in->granularities.empty());
  current_stages = config_in.initial_stages;
  brownout_cutoff = kBrownoutPriorityLevels;
  // Fig. 7: elastic scale-outs use the finest granularity that loads quickly (stage
  // parameters fetch in parallel), then consolidation merges them once traffic settles.
  fast_scale_stages = ladder->granularities.back();
  for (int g : ladder->granularities) {
    TimeNs load = ctx.cost_model->ColdLoadTime(ladder->plan(g).MaxStageParams());
    if (load <= FromSeconds(12.0)) {
      fast_scale_stages = g;
      break;
    }
  }
}

FlexPipeSystem::FlexPipeSystem(const SystemContext& ctx, const GranularityLadder* ladder,
                               const FlexPipeConfig& config)
    : FlexPipeSystem(ctx, SingleDeployment(ladder, config)) {}

FlexPipeSystem::FlexPipeSystem(const SystemContext& ctx,
                               std::vector<ModelDeployment> deployments)
    : ServingSystemBase(ctx, "FlexPipe", FirstDeploymentSlo(deployments)),
      hrg_(ctx.cluster, HierarchicalResourceGraph::Config{}),
      host_cache_(ctx.cluster),
      // The affinity/placement knobs come from the first deployment; they parameterize
      // the shared substrate, not a model's policy.
      affinity_(ctx.cluster, &host_cache_, deployments.front().config.scaling),
      placer_(ctx.cluster, ctx.network, &placement_registry_,
              deployments.front().config.placement) {
  for (const ModelDeployment& d : deployments) {
    for (const auto& existing : contexts_) {
      FLEXPIPE_CHECK_MSG(existing->config.model_id != d.config.model_id,
                         "duplicate model_id across deployments");
    }
    contexts_.push_back(std::make_unique<ModelContext>(ctx, d.ladder, d.config));
    RegisterServedModel(d.config.model_id);
  }
  // Like the placement knobs above: the first deployment's HealthConfig configures the
  // one shared monitor. The quarantine mask is lent to the placer for this system's
  // lifetime; it stays all-zeros until something is actually quarantined, so enabling
  // detection alone leaves every placement bit-identical.
  const HealthConfig& health = contexts_.front()->config.health;
  if (health.enabled) {
    health_monitor_ = std::make_unique<HealthMonitor>(ctx.cluster, health);
    placer_.set_excluded_servers(&health_monitor_->exclusion_mask());
  }
}

FlexPipeSystem::~FlexPipeSystem() = default;

const FlexPipeSystem::ModelContext& FlexPipeSystem::ContextFor(int model_id) const {
  for (const auto& model : contexts_) {
    if (model->config.model_id == model_id) {
      return *model;
    }
  }
  FLEXPIPE_CHECK_MSG(false, "request for a model this system does not serve");
  return *contexts_.front();  // unreachable
}

FlexPipeSystem::ModelContext& FlexPipeSystem::ContextFor(int model_id) {
  return const_cast<ModelContext&>(std::as_const(*this).ContextFor(model_id));
}

void FlexPipeSystem::Start() {
  for (auto& model : contexts_) {
    int count = MinInstances(*model, model->current_stages);
    for (int i = 0; i < count; ++i) {
      LaunchWithRetry(*model, model->current_stages, /*cv=*/1.0, /*remaining_attempts=*/10,
                      /*attempt=*/0);
    }
  }
  // One shared control loop at the tightest requested cadence; every model's
  // controller context runs each tick.
  TimeNs interval = contexts_.front()->config.control_interval;
  for (const auto& model : contexts_) {
    interval = std::min(interval, model->config.control_interval);
  }
  control_task_ = std::make_unique<PeriodicTask>(ctx_.sim, interval, [this] { Tick(); });
}

void FlexPipeSystem::OnArrival(Request* request) {
  ModelContext& model = ContextFor(request->model_id());
  // Shed requests still register as demand: the arrival-rate signal must keep driving
  // relaunches even while admission is throttled, or brownout would self-sustain.
  model.cv_monitor.RecordArrival(ctx_.sim->now());
  if (model.config.enable_brownout &&
      model.brownout_cutoff < kBrownoutPriorityLevels &&
      PriorityClass(*request) >= model.brownout_cutoff) {
    ShedRequest(request);
    return;
  }
  router_.Submit(request);
}

void FlexPipeSystem::UpdateBrownout(ModelContext& model) {
  if (!model.config.enable_brownout) {
    return;
  }
  int model_id = model.config.model_id;
  int active = 0;
  for (const InstanceRecord& r : records_) {
    if (!r.released && r.model_id == model_id &&
        r.instance->state() == InstanceState::kActive) {
      ++active;
    }
  }
  int floor = MinInstances(model, model.current_stages);
  if (active >= floor) {
    model.fleet_ever_active = true;
    model.brownout_cutoff = kBrownoutPriorityLevels;
    return;
  }
  if (!model.fleet_ever_active) {
    return;  // cold start, not capacity loss: admit and queue as always
  }
  // Shed classes proportional to the active-capacity deficit (lose half the floor,
  // shed half the classes), always keeping class 0 admitted.
  double deficit = 1.0 - static_cast<double>(active) / static_cast<double>(floor);
  int shed = static_cast<int>(std::ceil(deficit * kBrownoutPriorityLevels));
  shed = std::min(std::max(shed, 1), kBrownoutPriorityLevels - 1);
  model.brownout_cutoff = kBrownoutPriorityLevels - shed;
}

void FlexPipeSystem::Finish() { control_task_.reset(); }

void FlexPipeSystem::CollectAuditViolations(std::vector<std::string>* out) const {
  ServingSystemBase::CollectAuditViolations(out);
  AuditReport hrg = SimulationAuditor::AuditHrg(hrg_);
  out->insert(out->end(), hrg.begin(), hrg.end());
  // Host-cache accounting: what the cache believes it holds on a server can never
  // exceed what the cluster has accounted as reserved host memory there.
  for (ServerId s = 0; s < ctx_.cluster->server_count(); ++s) {
    const Server& server = ctx_.cluster->server(s);
    Bytes cached = host_cache_.UsedOn(s);
    if (cached > server.host_memory_used) {
      out->push_back("host cache believes server " + std::to_string(s) + " holds " +
                     std::to_string(cached) + " bytes but only " +
                     std::to_string(server.host_memory_used) + " are reserved");
    }
    if (server.host_memory_used > server.host_memory) {
      out->push_back("server " + std::to_string(s) + " host memory is overcommitted");
    }
  }
  // Health consistency: the placer's exclusion mask makes quarantine a hard
  // constraint, so an unreleased instance *launched after* a server's quarantine
  // began standing on that server means the mask was ignored or went stale.
  // (Migration-pinned instances are exempt: a refactor wave placed before the
  // quarantine may still be completing.)
  if (health_monitor_ != nullptr) {
    for (const InstanceRecord& rec : records_) {
      if (rec.released || migration_pinned_.count(rec.instance->id()) > 0) {
        continue;
      }
      for (GpuId g : rec.gpus) {
        ServerId s = ctx_.cluster->ServerOf(g);
        if (health_monitor_->IsQuarantined(s) &&
            rec.launched_at > health_monitor_->quarantined_since(s)) {
          out->push_back("instance " + std::to_string(rec.instance->id()) +
                         " was placed onto server " + std::to_string(s) +
                         " after its quarantine began");
        }
      }
    }
  }
}

double FlexPipeSystem::ObservedCv(const ModelContext& model) const {
  // Until the window fills, assume the Poisson default rather than over-reacting.
  if (model.cv_monitor.samples() < 16) {
    return 1.0;
  }
  return model.cv_monitor.Cv();
}

double FlexPipeSystem::ProjectedDemand(const ModelContext& model) const {
  TimeNs now = ctx_.sim->now();
  double rate = model.cv_monitor.RatePerSec(now);
  double gradient = model.cv_monitor.RateGradient(now);
  // Proactive adaptation (Algorithm 1): project the intensity gradient forward.
  return std::max(rate, rate + gradient * kDemandLeadS);
}

int FlexPipeSystem::MinInstances(const ModelContext& model, int stages) const {
  double reserve_rps = model.config.reserve_fraction * model.config.target_peak_rps;
  return std::max(1, model.granularity.InstancesFor(reserve_rps, stages));
}

std::vector<bool> FlexPipeSystem::WarmFlags(const ModelContext& model,
                                            const PipelinePlan& plan,
                                            const std::vector<GpuId>& gpus) const {
  std::vector<bool> warm(static_cast<size_t>(plan.num_stages()), false);
  if (!model.config.enable_host_cache) {
    return warm;
  }
  for (int s = 0; s < plan.num_stages(); ++s) {
    const StagePlan& sp = plan.stages[static_cast<size_t>(s)];
    ServerId server = ctx_.cluster->ServerOf(gpus[static_cast<size_t>(s)]);
    double coverage =
        host_cache_.Coverage(server, model.config.model_id, sp.fine_begin, sp.fine_end);
    warm[static_cast<size_t>(s)] = coverage >= 0.99;
  }
  return warm;
}

PipelineInstance* FlexPipeSystem::LaunchAt(ModelContext& model, int stages, double cv) {
  const PipelinePlan& plan = model.ladder->plan(stages);
  TimeNs now = ctx_.sim->now();

  TopologyAwarePlacer::ServerScoreFn hrg_hook;
  TopologyAwarePlacer::ServerScoreFn affinity_hook;
  if (model.config.enable_hrg) {
    hrg_hook = [this, now](ServerId s) { return hrg_.PlacementPenalty(s, now); };
  }
  if (model.config.enable_affinity) {
    Bytes threshold = plan.MaxStageParams();
    int model_id = model.config.model_id;
    affinity_hook = [this, now, threshold, model_id](ServerId s) {
      return affinity_.Score(s, model_id, now, threshold);
    };
  }
  std::vector<GpuId> gpus =
      placer_.PlaceStages(plan, model.config.model_id, cv, hrg_hook, affinity_hook);
  if (gpus.empty()) {
    return nullptr;
  }

  std::vector<bool> warm = WarmFlags(model, plan, gpus);
  double slowdown = 1.0;
  std::vector<ServerId> servers;
  for (GpuId g : gpus) {
    servers.push_back(ctx_.cluster->ServerOf(g));
  }
  for (ServerId s : servers) {
    slowdown = std::max(slowdown, hrg_.LoadSlowdown(s));
  }

  // Provisioning: fine-grained single-GPU pods bind fast; the log-normal tail models
  // the K8s admission path.
  double delay_s = model.rng.LogNormal(std::log(1.2), 0.4) +
                   0.25 * static_cast<double>(plan.num_stages() - 1) / 8.0;
  TimeNs delay = FromSeconds(delay_s);

  PipelineInstance* inst =
      LaunchInstance(plan, model.config.model_id, gpus, warm, slowdown, delay);

  // HRG bookkeeping: scaling events + load streams for the duration of the load. The
  // HRG is shared, so one model's scale-up storm steers every model's placements away
  // from the hot servers.
  for (ServerId s : servers) {
    hrg_.RecordScalingEvent(s, now);
    hrg_.AddLoadStream(s);
  }
  // Streams retire when loading is expected to finish (estimate: delay + worst stage),
  // or immediately if the instance is released mid-load (see RetireLoadStreams).
  TimeNs worst_load = 0;
  for (int s = 0; s < plan.num_stages(); ++s) {
    Bytes params = plan.stages[static_cast<size_t>(s)].param_bytes;
    TimeNs t = warm[static_cast<size_t>(s)]
                   ? ctx_.cost_model->WarmLoadTime(params, ctx_.network->config().pcie_bandwidth)
                   : ctx_.cost_model->ColdLoadTime(params);
    worst_load = std::max(worst_load, static_cast<TimeNs>(static_cast<double>(t) * slowdown));
  }
  pending_load_streams_[inst->id()] = servers;
  ctx_.sim->Schedule(delay + worst_load,
                     [this, id = inst->id()] { RetireLoadStreams(id); });
  // Keep affinity timestamps fresh on servers we now occupy.
  if (model.config.enable_host_cache) {
    for (ServerId s : servers) {
      host_cache_.Touch(s, model.config.model_id, now);
    }
  }
  return inst;
}

void FlexPipeSystem::RetireLoadStreams(int instance_id) {
  auto it = pending_load_streams_.find(instance_id);
  if (it == pending_load_streams_.end()) {
    return;
  }
  for (ServerId s : it->second) {
    hrg_.RemoveLoadStream(s);
  }
  pending_load_streams_.erase(it);
}

void FlexPipeSystem::OnInstanceReleased(int instance_id) {
  RetireLoadStreams(instance_id);
  health_sampled_.erase(instance_id);
  loader_restarts_.erase(instance_id);
}

void FlexPipeSystem::LaunchWithRetry(ModelContext& model, int stages, double cv,
                                     int remaining_attempts, int attempt) {
  PipelineInstance* inst = LaunchAt(model, stages, cv);
  if (inst != nullptr) {
    return;
  }
  if (remaining_attempts <= 0) {
    FLEXPIPE_LOG_INFO("FlexPipe: giving up on launch at %d stages after retries (model %d)",
                      stages, model.config.model_id);
    return;
  }
  TimeNs backoff = kRetryBackoff;
  for (int i = 0; i < attempt && backoff < kRelaunchBackoffCap; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, kRelaunchBackoffCap);
  ModelContext* model_ptr = &model;
  ctx_.sim->Schedule(backoff, [this, model_ptr, stages, cv, remaining_attempts, attempt] {
    LaunchWithRetry(*model_ptr, stages, cv, remaining_attempts - 1, attempt + 1);
  });
}

void FlexPipeSystem::RestartStuckLoaders(ModelContext& model) {
  TimeNs now = ctx_.sim->now();
  // Snapshot: restarting deregisters from the router mid-iteration otherwise.
  std::vector<PipelineInstance*> loading;
  for (PipelineInstance* inst : router_.instances()) {
    // Migration targets load too, but a session holds pointers into them — the
    // refactor path owns their lifecycle (and aborts them itself on failure).
    if (inst->model_id() == model.config.model_id &&
        inst->state() == InstanceState::kLoading &&
        migration_pinned_.count(inst->id()) == 0) {
      loading.push_back(inst);
    }
  }
  double cv = ObservedCv(model);
  const bool degraded = ctx_.cluster->AnyDegraded();
  int restarts = 0;
  for (PipelineInstance* inst : loading) {
    if (restarts >= kMaxLaunchesPerTick) {
      break;
    }
    // Restart budget: a loader on genuinely slow hardware (degraded NIC) legitimately
    // lags the fresh estimate, and restarting it in place would loop forever. After
    // the cap it finishes at whatever pace its links allow.
    auto spent_it = loader_restarts_.find(inst->id());
    int spent = spent_it == loader_restarts_.end() ? 0 : spent_it->second;
    if (spent >= kStuckLoaderMaxRestarts) {
      continue;
    }
    TimeNs remaining = inst->load_finish_time() - now;
    if (remaining <= kStuckLoaderMargin) {
      continue;
    }
    // What the same placement would cost if launched right now (cold: a restarted
    // loader starts its pull from scratch). The estimate must price in the same
    // fail-slow link factors BeginLoading charges, or a degraded-but-progressing
    // loader looks stuck against an impossibly healthy baseline.
    double slowdown = 1.0;
    for (GpuId g : inst->gpus()) {
      slowdown = std::max(slowdown, hrg_.LoadSlowdown(ctx_.cluster->ServerOf(g)));
    }
    TimeNs fresh = 0;
    for (int s = 0; s < inst->plan().num_stages(); ++s) {
      Bytes params = inst->plan().stages[static_cast<size_t>(s)].param_bytes;
      TimeNs t = ctx_.cost_model->ColdLoadTime(params);
      if (degraded) {
        double link =
            ctx_.cluster->ServerLinkFactor(inst->StageServer(s));
        if (link != 1.0) {
          t = static_cast<TimeNs>(static_cast<double>(t) / link);
        }
      }
      fresh = std::max(fresh, static_cast<TimeNs>(static_cast<double>(t) * slowdown));
    }
    TimeNs threshold =
        static_cast<TimeNs>(kStuckLoaderFactor * static_cast<double>(fresh)) +
        kStuckLoaderMargin;
    if (remaining <= threshold) {
      continue;
    }
    int stages = inst->num_stages();
    // Not a fault: admitted-but-unserved requests requeue without touching the
    // failure counters, and the loader's reservation frees before the relaunch so
    // the replacement can reuse the same GPUs.
    std::vector<Request*> displaced = inst->FailNow();
    ReleaseInstance(inst);
    if (!displaced.empty()) {
      router_.RequeueFront(displaced);
    }
    // The replacement inherits the spent-restart count, so the budget bounds total
    // churn per logical launch, not per instance id. A failed immediate relaunch
    // falls back to the retry path and the count is forfeited — acceptable: retries
    // already back off exponentially.
    PipelineInstance* replacement = LaunchAt(model, stages, cv);
    if (replacement != nullptr) {
      loader_restarts_[replacement->id()] = spent + 1;
    } else {
      LaunchWithRetry(model, stages, cv, /*remaining_attempts=*/5, /*attempt=*/0);
    }
    ++restarts;
  }
}

void FlexPipeSystem::RetireOne(ModelContext& model) {
  // Pick this model's least-loaded active instance beyond the floor and drain it.
  PipelineInstance* victim = nullptr;
  double least = 0.0;
  for (PipelineInstance* inst : router_.instances()) {
    if (inst->model_id() != model.config.model_id ||
        inst->state() != InstanceState::kActive) {
      continue;
    }
    double load = inst->LoadFraction();
    if (victim == nullptr || load < least) {
      least = load;
      victim = inst;
    }
  }
  if (victim == nullptr || migration_pinned_.count(victim->id()) > 0) {
    return;
  }
  router_.DeregisterInstance(victim->id());
  victim->StartDraining([this, victim] {
    CacheStageParams(victim);
    ReleaseInstance(victim);
  });
}

void FlexPipeSystem::CacheStageParams(PipelineInstance* instance) {
  const ModelContext& model = ContextFor(instance->model_id());
  if (!model.config.enable_host_cache) {
    return;
  }
  TimeNs now = ctx_.sim->now();
  const PipelinePlan& plan = instance->plan();
  for (int s = 0; s < plan.num_stages(); ++s) {
    GpuId g = instance->gpus()[static_cast<size_t>(s)];
    if (!ctx_.cluster->GpuUsable(g)) {
      continue;
    }
    const StagePlan& sp = plan.stages[static_cast<size_t>(s)];
    host_cache_.Put(ctx_.cluster->ServerOf(g), model.config.model_id, sp.fine_begin,
                    sp.fine_end, sp.param_bytes, now);
  }
}

void FlexPipeSystem::BeginRefactor(ModelContext& model,
                                   std::vector<PipelineInstance*> old_instances,
                                   int new_stages, double cv) {
  // Never called from a session's on_done, so no finished session is still on the stack.
  std::erase_if(sessions_, [](const auto& session) { return session->finished(); });
  if (old_instances.empty()) {
    return;
  }
  // Capacity-preserving target fleet: the migrated instances' total stage count maps
  // onto new_stages-deep pipelines.
  int total_old_stages = 0;
  for (const PipelineInstance* inst : old_instances) {
    total_old_stages += inst->num_stages();
  }
  int target_count = std::max(1, (total_old_stages + new_stages - 1) / new_stages);

  std::vector<PipelineInstance*> targets;
  for (int i = 0; i < target_count; ++i) {
    PipelineInstance* t = LaunchAt(model, new_stages, cv);
    if (t != nullptr) {
      targets.push_back(t);
    }
  }
  if (targets.empty()) {
    // Fragmentation prevents the transition; stay at the current granularity.
    FLEXPIPE_LOG_INFO("FlexPipe: refactor to %d stages aborted (no placement, model %d)",
                      new_stages, model.config.model_id);
    return;
  }
  model.current_stages = new_stages;
  // Placement may launch fewer targets than planned. Keep the planned fan-in per target
  // rather than folding every source onto the few that launched: the surplus sources
  // keep serving at the old granularity, and a later wave picks them up.
  const size_t fan_in = (old_instances.size() + static_cast<size_t>(target_count) - 1) /
                        static_cast<size_t>(target_count);
  old_instances.resize(std::min(old_instances.size(), targets.size() * fan_in));

  // Sessions grouped by target: a session must not halt its source before the target
  // can serve, so sessions wait for the target's activation. The old pipelines keep
  // serving (admissions open) until their session's snapshot phase begins.
  std::map<int, std::vector<MigrationSession*>> by_target;
  std::map<int, PipelineInstance*> target_by_id;
  for (size_t i = 0; i < old_instances.size(); ++i) {
    PipelineInstance* from = old_instances[i];
    PipelineInstance* to = targets[i % targets.size()];
    auto session = std::make_unique<MigrationSession>(
        ctx_.sim, ctx_.transfer, from, to, &router_,
        [this](PipelineInstance* old_inst, const MigrationResult& result) {
          OnMigrationDone(old_inst, result);
        });
    ++model.refactors_in_progress;
    migration_pinned_[from->id()] = model.config.model_id;
    migration_pinned_[to->id()] = model.config.model_id;
    by_target[to->id()].push_back(session.get());
    target_by_id[to->id()] = to;
    sessions_.push_back(std::move(session));
  }
  for (auto& [target_id, session_list] : by_target) {
    PipelineInstance* target = target_by_id[target_id];
    auto start_all = [session_list] {
      for (MigrationSession* s : session_list) {
        if (!s->started()) {
          s->Start();
        }
      }
    };
    if (target->state() == InstanceState::kActive) {
      start_all();
    } else {
      target->set_activation_callback(start_all);
    }
  }
}

void FlexPipeSystem::OnMigrationDone(PipelineInstance* old_instance,
                                     const MigrationResult& result) {
  ModelContext& model = ContextFor(old_instance->model_id());
  last_pause_ = result.pause_duration;
  total_pause_ += result.pause_duration;
  kv_migrated_bytes_ += result.snapshot_bytes + result.delta_bytes;
  ++refactor_count_;
  EndMigration(model, old_instance->id(), /*target_id=*/-1);
  CacheStageParams(old_instance);
  ReleaseInstance(old_instance);
  router_.Pump();
}

void FlexPipeSystem::EndMigration(ModelContext& model, int source_id, int target_id) {
  --model.refactors_in_progress;
  migration_pinned_.erase(source_id);
  migration_pinned_.erase(target_id);
  if (model.refactors_in_progress == 0) {
    // Targets unpin once this model's wave completes; other models' pins stay.
    for (auto it = migration_pinned_.begin(); it != migration_pinned_.end();) {
      it = it->second == model.config.model_id ? migration_pinned_.erase(it) : std::next(it);
    }
  }
}

const KvValidityMask* FlexPipeSystem::recovery_mask_for(RequestId id) const {
  auto it = recovery_masks_.find(id);
  return it != recovery_masks_.end() ? it->second.get() : nullptr;
}

void FlexPipeSystem::OnRequestComplete(Request* request) {
  if (!recovery_masks_.empty()) {
    recovery_masks_.erase(request->spec.id);
  }
}

void FlexPipeSystem::OnGpusLost(const std::vector<GpuId>& lost) {
  std::vector<PipelineInstance*> victims = UnreleasedInstancesOn(lost);
  if (victims.empty()) {
    return;  // nothing of ours stood on the lost GPUs
  }
  auto is_victim = [&victims](const PipelineInstance* inst) {
    return std::find(victims.begin(), victims.end(), inst) != victims.end();
  };

  // Teardown-policy models raze their whole fleet, not just the dead instances: the
  // PipeBoost-style baseline re-places the deployment from scratch.
  std::vector<int> teardown;  // model ids, first-seen order (deterministic)
  for (const PipelineInstance* v : victims) {
    int model_id = v->model_id();
    if (ContextFor(model_id).config.fault_recovery == FaultRecoveryPolicy::kTeardown &&
        std::find(teardown.begin(), teardown.end(), model_id) == teardown.end()) {
      teardown.push_back(model_id);
    }
  }
  for (int model_id : teardown) {
    for (InstanceRecord& rec : records_) {
      if (!rec.released && rec.model_id == model_id && !is_victim(rec.instance.get())) {
        victims.push_back(rec.instance.get());
      }
    }
  }

  // Abort migrations touching a victim. The surviving endpoint becomes a victim too —
  // a target holds partially migrated KV it can no longer complete — and the limbo
  // requests (extracted at halt, not yet resumed) are reclaimed so they requeue exactly
  // once. Fixpoint loop: sessions can share a target, so one abort can implicate a
  // session already passed over.
  std::vector<Request*> limbo;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& session : sessions_) {
      if (session->finished() || session->aborted()) {
        continue;
      }
      PipelineInstance* src = session->source();
      PipelineInstance* dst = session->target();
      if (!is_victim(src) && !is_victim(dst)) {
        continue;
      }
      std::vector<Request*> reclaimed = session->Abort();
      limbo.insert(limbo.end(), reclaimed.begin(), reclaimed.end());
      EndMigration(ContextFor(src->model_id()), src->id(), dst->id());
      for (PipelineInstance* endpoint : {src, dst}) {
        if (!is_victim(endpoint)) {
          victims.push_back(endpoint);
        }
      }
      changed = true;
    }
  }

  // A server whose every GPU is dead took its host RAM — and its cached parameter
  // images — with it. Partitioned GPUs keep their memory; the cache survives a heal.
  // Displace never caches onto these servers: none of their GPUs is usable.
  for (GpuId g : lost) {
    ServerId s = ctx_.cluster->ServerOf(g);
    const std::vector<GpuId>& gpus = ctx_.cluster->server(s).gpus;
    if (std::all_of(gpus.begin(), gpus.end(),
                    [this](GpuId sg) { return ctx_.cluster->GpuFailed(sg); })) {
      host_cache_.DropServer(s);  // idempotent when `lost` repeats a server
    }
  }

  Displace(std::move(victims), std::move(limbo), /*evacuation=*/false);
}

void FlexPipeSystem::Displace(std::vector<PipelineInstance*> victims,
                              std::vector<Request*> limbo, bool evacuation) {
  if (victims.empty()) {
    return;
  }
  auto reforms = [this, evacuation](int model_id) {
    return evacuation ||
           ContextFor(model_id).config.fault_recovery == FaultRecoveryPolicy::kReform;
  };
  // Reforming victims seed the host cache first, so the replacements warm-start from
  // the same servers.
  std::vector<int> affected;  // model ids, first-seen order (deterministic)
  std::vector<Request*> displaced;
  for (PipelineInstance* victim : victims) {
    int model_id = victim->model_id();
    if (std::find(affected.begin(), affected.end(), model_id) == affected.end()) {
      affected.push_back(model_id);
    }
    bool reform = reforms(model_id);
    if (reform) {
      CacheStageParams(victim);
    }
    FailInstance(victim, /*restart_decoding=*/!reform, &displaced);
  }
  for (Request* r : limbo) {
    ApplyDecodePolicy(r, /*restart_decoding=*/!reforms(r->model_id()));
    displaced.push_back(r);
  }
  // A fresh mask is all-invalid — exactly the displacement semantics: the failed
  // instance held the only KV copy, so every context token must be recomputed (Eq. 10
  // with an empty valid set).
  for (const Request* r : displaced) {
    int context = r->context_tokens();
    if (r->recompute_tokens > 0 && context > 0 && reforms(r->model_id())) {
      kv_invalidated_tokens_ += context;
      recovery_masks_[r->spec.id] = std::make_unique<KvValidityMask>(context);
    }
  }
  RequeueDisplaced(std::move(displaced));

  // Replace what died immediately rather than waiting for the next control tick.
  // Reform relaunches one-for-one at the fast-loading fine granularity (Fig. 7's burst
  // path — recovery is the ultimate burst; for an evacuation the placer's exclusion
  // mask steers the replacement onto healthy capacity); teardown cold-starts its fleet
  // at the coarse initial granularity.
  for (int model_id : affected) {
    ModelContext& model = ContextFor(model_id);
    int torn_down = 0;
    for (const PipelineInstance* v : victims) {
      torn_down += v->model_id() == model_id ? 1 : 0;
    }
    bool reform = reforms(model_id);
    int stages = reform ? model.fast_scale_stages : model.config.initial_stages;
    int launches = reform ? torn_down : std::max(MinInstances(model, stages), torn_down);
    double cv = ObservedCv(model);
    for (int i = 0; i < launches; ++i) {
      LaunchWithRetry(model, stages, cv, /*remaining_attempts=*/10, /*attempt=*/0);
    }
    // Enter brownout right away if the loss left the active fleet under its floor —
    // the replacements just launched are still provisioning/loading.
    UpdateBrownout(model);
  }
  router_.Pump();
}

void FlexPipeSystem::Tick() {
  for (auto& model : contexts_) {
    TickModel(*model);
  }
  if (health_monitor_ != nullptr) {
    SampleHealth();
  }
}

void FlexPipeSystem::SampleHealth() {
  TimeNs now = ctx_.sim->now();
  // Busy-time deltas since the last tick, attributed per stage to the server the
  // stage runs on. Records are walked in launch order and the monitor folds its
  // window in ascending server-id order, so the whole pass is deterministic.
  for (const InstanceRecord& rec : records_) {
    if (rec.released) {
      continue;
    }
    const PipelineInstance* inst = rec.instance.get();
    InstanceState state = inst->state();
    if (state != InstanceState::kActive && state != InstanceState::kDraining) {
      continue;  // loaders have no busy time yet; sampling starts at activation
    }
    auto& last = health_sampled_[inst->id()];
    last.resize(static_cast<size_t>(inst->num_stages()), {0, 0});
    for (int s = 0; s < inst->num_stages(); ++s) {
      TimeNs observed = inst->StageBusyObserved(s);
      TimeNs base = inst->StageBusyBase(s);
      auto& prev = last[static_cast<size_t>(s)];
      health_monitor_->Observe(inst->StageServer(s), observed - prev.first,
                               base - prev.second);
      prev = {observed, base};
    }
  }
  std::vector<ServerId> flagged = health_monitor_->EndWindow(now);
  if (health_monitor_->config().mitigate) {
    if (!flagged.empty()) {
      MitigateStragglers(flagged);
    }
    if (!evacuation_queue_.empty()) {
      ProcessEvacuations();
    }
  }
}

void FlexPipeSystem::MitigateStragglers(const std::vector<ServerId>& flagged) {
  // Only act on servers the monitor actually quarantined (strikes below the
  // threshold flag without quarantine — the placer still admits those, so
  // migrating off them would race the next launch right back on).
  for (const InstanceRecord& rec : records_) {
    if (rec.released || migration_pinned_.count(rec.instance->id()) > 0) {
      continue;
    }
    bool on_straggler = false;
    for (GpuId g : rec.gpus) {
      ServerId s = ctx_.cluster->ServerOf(g);
      for (ServerId f : flagged) {
        on_straggler = on_straggler || (s == f && health_monitor_->IsQuarantined(f));
      }
    }
    int id = rec.instance->id();
    if (on_straggler && std::find(evacuation_queue_.begin(), evacuation_queue_.end(),
                                  id) == evacuation_queue_.end()) {
      evacuation_queue_.push_back(id);
    }
  }
}

void FlexPipeSystem::ProcessEvacuations() {
  std::vector<PipelineInstance*> victims;
  size_t taken = 0;
  while (taken < evacuation_queue_.size() &&
         static_cast<int>(victims.size()) < kMaxEvacuationsPerTick) {
    int id = evacuation_queue_[taken];
    ++taken;
    InstanceRecord* rec = FindRecord(id);
    // The queue outlives its entries' relevance: an instance may have died, been
    // retired, or become a migration endpoint since it was flagged.
    if (rec != nullptr && !rec->released && migration_pinned_.count(id) == 0) {
      victims.push_back(rec->instance.get());
    }
  }
  evacuation_queue_.erase(evacuation_queue_.begin(),
                          evacuation_queue_.begin() + static_cast<long>(taken));
  // Proactive reform: every GPU is still alive, so all stages seed the host cache and
  // decode progress survives through Eq. 10 recompute masks.
  health_migrations_ += static_cast<int64_t>(victims.size());
  Displace(std::move(victims), /*limbo=*/{}, /*evacuation=*/true);
}

void FlexPipeSystem::TickModel(ModelContext& model) {
  RestartStuckLoaders(model);
  // Brownout follows the active fleet each tick: it deepens if more capacity dies,
  // lifts the moment relaunches activate and the floor is met again.
  UpdateBrownout(model);
  double cv = ObservedCv(model);
  double demand = ProjectedDemand(model);
  TimeNs now = ctx_.sim->now();
  int model_id = model.config.model_id;
  double qnorm = std::min(1.0, static_cast<double>(router_.queue_length_for(model_id)) /
                                   model.config.scaling.q_max);

  // Granularity adaptation (Algorithm 1, lines 5-16), damped by the cooldown and
  // directional: consolidation (merge toward coarse) runs only while traffic is calm —
  // it trades capacity for per-request latency; refinement of too-coarse instances runs
  // only under queue pressure, when their buffering is the bottleneck. Fine-grained
  // burst capacity normally arrives through the scaling path below (Fig. 7), so merges
  // are the common refactor.
  if (model.config.enable_refactoring && model.refactors_in_progress == 0 &&
      now - model.last_refactor_time >= kRefactorCooldown) {
    int desired = model.granularity.SelectStageCount(cv, model.current_stages);
    bool calm = qnorm < 0.05;
    std::vector<PipelineInstance*> to_migrate;
    for (PipelineInstance* inst : router_.instances()) {
      if (inst->model_id() != model_id || inst->state() != InstanceState::kActive) {
        continue;
      }
      if (inst->num_stages() > desired && calm) {
        to_migrate.push_back(inst);  // merge: fewer hops once stable
      } else if (inst->num_stages() < desired && qnorm > 0.5) {
        to_migrate.push_back(inst);  // split: distributed buffering for bursts
      }
    }
    model.current_stages = desired;
    if (!to_migrate.empty()) {
      model.last_refactor_time = now;
      BeginRefactor(model, std::move(to_migrate), desired, cv);
      return;
    }
  }

  // Fleet sizing (Eq. 5) with queue-pressure escalation (Eq. 11/12).
  int needed = std::max(MinInstances(model, model.current_stages),
                        model.granularity.InstancesFor(demand, model.current_stages));
  int loading = 0;
  for (const PipelineInstance* inst : router_.instances()) {
    if (inst->model_id() == model_id && inst->state() == InstanceState::kLoading) {
      ++loading;
    }
  }
  // Queue-pressure escalation only when no capacity is already on the way — otherwise
  // every control tick during a (multi-second) load would ratchet the fleet up.
  // §7 / Eq. 11: the *scaling granularity* m_j escalates with cv * q̂ — urgent capacity
  // is added as fine-grained stages because they load ~8.7x faster (Table 2), turning
  // a ~48 s coarse cold start into a few seconds of ramp. Demand-driven scale-outs use
  // the precomputed fast granularity for the same reason; consolidation merges later.
  int scale_stages = std::max(model.current_stages, model.fast_scale_stages);
  if (qnorm > 0.0 && loading == 0) {
    int m = ScalingGranularity(cv, qnorm, model.config.scaling);
    // Snap Eq. 11's granularity to the ladder: the smallest stage count >= m_j.
    for (int g : model.ladder->granularities) {
      scale_stages = std::max(scale_stages, g);
      if (g >= m) {
        break;
      }
    }
    const GranularityOption& opt = model.granularity.OptionFor(model.current_stages);
    int queued = router_.queue_length_for(model_id);
    bool feasible = SloFeasible(model.config.default_slo, FromSeconds(3.0),
                                opt.throughput_rps, ActiveOrLoadingForModel(model_id), queued);
    if (!feasible || qnorm > 0.25) {
      needed = std::max(needed, ActiveOrLoadingForModel(model_id) + (qnorm > 0.6 ? 2 : 1));
    }
  }

  int have = ActiveOrLoadingForModel(model_id);
  if (have < needed) {
    int launches = std::min(kMaxLaunchesPerTick, needed - have);
    for (int i = 0; i < launches; ++i) {
      LaunchWithRetry(model, scale_stages, cv, /*remaining_attempts=*/5, /*attempt=*/0);
    }
    model.overcapacity_since = -1;
  } else if (have > needed) {
    // Reclaim only after the idle window (§9.4: 5-minute reclamation).
    if (model.overcapacity_since < 0) {
      model.overcapacity_since = now;
    } else if (now - model.overcapacity_since >= model.config.scaling.reclaim_idle) {
      RetireOne(model);
      model.overcapacity_since = -1;
    }
  } else {
    model.overcapacity_since = -1;
  }
}

}  // namespace flexpipe
