// FlexPipeSystem: the complete adaptive serving system (§4 architecture, Algorithm 1).
//
// One FlexPipeSystem can serve several models concurrently on one shared cluster (the
// paper's production mix: WHISPER-9B, LLAMA2-7B, BERT-21B, OPT-66B). Each model gets
// its own controller context — CvMonitor, GranularityController, fleet sizing state —
// while the HRG, host parameter cache, affinity scheduler and topology-aware placer are
// shared, so models genuinely contend for GPUs through the same substrate.
//
// A periodic controller observes each model's request pattern through its CvMonitor and
// drives three mechanisms:
//   * inflight pipeline refactoring — when Eq. 4 prefers a different granularity, new
//     instances are brought up at the target stage count and live state migrates via
//     MigrationSessions (no service interruption);
//   * adaptive scaling — Eq. 5 sizes the data-parallel fleet for current demand (with
//     the intensity gradient as lead), Eq. 11/12 escalate under queue pressure, and
//     instances are reclaimed after the idle window during calm periods;
//   * topology-aware allocation — placements go through the Eq. 6–9 placer with HRG
//     contention penalties and Eq. 13 affinity bonuses; released parameters persist in
//     the host cache so later scale-ups warm-start.
//
// Fail-stop recovery (OnGpusLost) and health evacuation (ProcessEvacuations) pick their
// victims and share one displacement path (Displace); refactoring is the live KV
// migration of MigrationSession instead.
//
// Ablation switches (enable_refactoring / enable_hrg / enable_affinity /
// enable_host_cache) exist for the ablation benches.
#ifndef FLEXPIPE_SRC_CORE_FLEXPIPE_SYSTEM_H_
#define FLEXPIPE_SRC_CORE_FLEXPIPE_SYSTEM_H_

#include <map>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/core/allocation.h"
#include "src/core/cv_monitor.h"
#include "src/core/granularity.h"
#include "src/core/health.h"
#include "src/core/refactoring.h"
#include "src/core/scaling.h"
#include "src/core/serving.h"

namespace flexpipe {

// What FlexPipe does when GPUs die under a live fleet (fig15):
//   kReform   — migration-based re-formation: abort sessions touching dead instances,
//               keep decode progress via KV recompute, seed the host cache from the
//               surviving stages, and relaunch at the fast-loading fine granularity.
//   kTeardown — the PipeBoost-style naive baseline: tear down every instance of the
//               affected model, drop all decode progress, and cold-start the initial
//               fleet from scratch.
enum class FaultRecoveryPolicy {
  kReform = 0,
  kTeardown = 1,
};

// One model's policy. The controller hygiene that Algorithm 1 does not parameterize is
// fixed in flexpipe_system.cc: launch pacing (kMaxLaunchesPerTick), relaunch backoff
// (kRetryBackoff doubling up to kRelaunchBackoffCap), refactor damping
// (kRefactorCooldown), the intensity-gradient lead (kDemandLeadS), stuck-loader restarts
// (kStuckLoaderFactor, kStuckLoaderMargin, kStuckLoaderMaxRestarts), the brownout class
// count (kBrownoutPriorityLevels) and health-evacuation pacing (kMaxEvacuationsPerTick).
struct FlexPipeConfig {
  int model_id = 0;
  int initial_stages = 4;
  double reserve_fraction = 0.30;  // always-on share of peak capacity (§9.6)
  double target_peak_rps = 20.0;
  TimeNs control_interval = 500 * kMillisecond;
  TimeNs default_slo = 15 * kSecond;

  GranularityConfig granularity;
  ScalingConfig scaling;
  PlacementConfig placement;
  WorkloadAssumptions workload;

  bool enable_refactoring = true;
  bool enable_hrg = true;
  bool enable_affinity = true;
  bool enable_host_cache = true;

  FaultRecoveryPolicy fault_recovery = FaultRecoveryPolicy::kReform;

  // -- Fail-slow detection and mitigation (fig17) ---------------------------------------
  // Substrate-level like `placement`: the first deployment's `health` configures the
  // one shared monitor (gray failures are a property of servers, not of models).
  HealthConfig health;

  // -- Degraded-mode serving (fig16) ----------------------------------------------------
  // Brownout: once a fleet that had come up loses enough capacity that its *active*
  // instance count falls below the floor (MinInstances), admission control sheds the
  // lowest-priority request classes until capacity returns. Requests bucket into
  // kBrownoutPriorityLevels classes via RequestSpec::priority (derived from the request
  // id when unset); the number of shed classes scales with the capacity deficit and
  // class 0 is never shed. Opt-in: the default admits everything.
  bool enable_brownout = false;
};

class FLEXPIPE_THREAD_HOSTILE FlexPipeSystem : public ServingSystemBase {
 public:
  // One model's deployment on the shared cluster. `config.model_id` must match the
  // `model_index` its requests carry and must be unique across deployments.
  struct ModelDeployment {
    const GranularityLadder* ladder = nullptr;
    FlexPipeConfig config;
  };

  // Single-model convenience (the historical interface).
  FlexPipeSystem(const SystemContext& ctx, const GranularityLadder* ladder,
                 const FlexPipeConfig& config);
  // Multi-model: one controller context per deployment, shared HRG / cache / placer.
  FlexPipeSystem(const SystemContext& ctx, std::vector<ModelDeployment> deployments);
  ~FlexPipeSystem() override;

  void Start() override;
  void OnArrival(Request* request) override;
  void Finish() override;
  // Fail-stop recovery per the affected model's FaultRecoveryPolicy. Picks the victims
  // (instances on lost GPUs; under kTeardown the model's whole fleet), aborts
  // migrations touching them (their surviving endpoints become victims and their limbo
  // requests are reclaimed), drops the host cache of fully-dead servers, and hands
  // everything to Displace.
  void OnGpusLost(const std::vector<GpuId>& lost) override;
  // Base invariants plus HRG stream tallies and host-cache vs cluster accounting.
  void CollectAuditViolations(std::vector<std::string>* out) const override;

  // -- Introspection for benches --------------------------------------------------------
  // Aggregates across all models:
  int64_t refactor_count() const { return refactor_count_; }
  TimeNs last_refactor_pause() const { return last_pause_; }
  TimeNs total_refactor_pause() const { return total_pause_; }
  Bytes kv_migrated_bytes() const { return kv_migrated_bytes_; }
  const HostParamCache& host_cache() const { return host_cache_; }
  // Per-model views of the first (or only) deployment:
  int current_stages() const { return contexts_.front()->current_stages; }
  const CvMonitor& cv_monitor() const { return contexts_.front()->cv_monitor; }
  const GranularityController& granularity_controller() const {
    return contexts_.front()->granularity;
  }
  int model_count() const { return static_cast<int>(contexts_.size()); }

  // -- Recovery introspection (fig15 / fault tests) --------------------------------------
  // Under kReform a displaced decoding request's KV is invalidated through an Eq. 10
  // mask at failure time (all context tokens invalid — the dead instance held the only
  // copy) and dropped once the request completes after its recompute pass. Returns
  // nullptr for requests with no failure in flight.
  const KvValidityMask* recovery_mask_for(RequestId id) const;
  int64_t kv_invalidated_tokens() const { return kv_invalidated_tokens_; }

  // -- Fail-slow introspection (fig17 / health tests) ------------------------------------
  // nullptr unless the first deployment's HealthConfig::enabled was set.
  const HealthMonitor* health_monitor() const { return health_monitor_.get(); }
  // Instances proactively evacuated off flagged-and-quarantined servers.
  int64_t health_migrations() const { return health_migrations_; }

 private:
  // Per-model controller state (§4's control loop instantiated once per model).
  struct ModelContext {
    ModelContext(const SystemContext& ctx, const GranularityLadder* ladder_in,
                 const FlexPipeConfig& config_in);

    const GranularityLadder* ladder;
    FlexPipeConfig config;
    Rng rng;
    CvMonitor cv_monitor;
    GranularityController granularity;
    int current_stages = 0;
    int fast_scale_stages = 0;
    int refactors_in_progress = 0;
    TimeNs overcapacity_since = -1;
    TimeNs last_refactor_time = 0;
    // Brownout state: classes >= cutoff are shed at admission; cutoff == levels means
    // no shedding. fleet_ever_active distinguishes capacity *lost* (brownout) from
    // capacity still coming up at cold start (admit and queue, as always).
    int brownout_cutoff = 0;
    bool fleet_ever_active = false;
  };

  void Tick();
  void TickModel(ModelContext& model);
  // Both fail fast on a model this system does not serve.
  const ModelContext& ContextFor(int model_id) const;
  ModelContext& ContextFor(int model_id);
  double ObservedCv(const ModelContext& model) const;
  double ProjectedDemand(const ModelContext& model) const;
  int MinInstances(const ModelContext& model, int stages) const;

  PipelineInstance* LaunchAt(ModelContext& model, int stages, double cv);
  // Retries a failed launch with bounded exponential backoff: attempt k (0-based)
  // waits min(kRetryBackoff * 2^k, kRelaunchBackoffCap).
  void LaunchWithRetry(ModelContext& model, int stages, double cv, int remaining_attempts,
                       int attempt);
  // Re-evaluates the brownout cutoff from the model's active fleet vs its floor.
  void UpdateBrownout(ModelContext& model);
  // Drops the HRG load streams opened for `instance_id` if they are still pending.
  // Idempotent: called both at the load's estimated finish and — crucial under failure
  // storms — from OnInstanceReleased when the instance dies mid-load, so razed fleets
  // do not leave zombie streams inflating every later launch's contention slowdown.
  void RetireLoadStreams(int instance_id);
  void OnInstanceReleased(int instance_id) override;
  // Releases and relaunches loaders lagging far behind the current fresh-load
  // estimate (see kStuckLoaderFactor). At most kMaxLaunchesPerTick restarts per call;
  // admitted-but-unserved requests requeue silently (a loader restart is hygiene, not a
  // fault).
  void RestartStuckLoaders(ModelContext& model);
  // Feeds per-stage busy-time deltas into the health monitor, closes the sampling
  // window, and (when mitigating) evacuates instances off newly quarantined servers.
  void SampleHealth();
  // Proactive reform off gray-failed hardware: every unreleased, non-migration-pinned
  // instance with a stage on a newly quarantined server is queued for evacuation
  // through the reform path (surviving params seed the host cache, decode progress
  // survives via Eq. 10 recompute masks) and replaced at the fast-loading
  // granularity — the placer's exclusion mask keeps the replacement off the
  // quarantined server.
  void MitigateStragglers(const std::vector<ServerId>& flagged);
  // Drains the evacuation queue at most kMaxEvacuationsPerTick instances per tick:
  // evacuating a whole quarantined wave at once would raze more live capacity than
  // the degradation itself costs, so victims keep (slowly) serving until their
  // replacement slot comes up.
  void ProcessEvacuations();
  // The one displacement path: fails `victims`, applies the decode policy to their
  // requests and to `limbo` (reclaimed from aborted migrations), requeues all of them
  // exactly once, and relaunches per affected model. A model reforms under kReform or
  // on `evacuation`: usable stages seed the host cache, decode progress survives behind
  // Eq. 10 recovery masks, and replacements launch one-for-one at fast_scale_stages.
  // Otherwise max(MinInstances, torn down) cold-start at initial_stages.
  void Displace(std::vector<PipelineInstance*> victims, std::vector<Request*> limbo,
                bool evacuation);
  void RetireOne(ModelContext& model);
  void BeginRefactor(ModelContext& model, std::vector<PipelineInstance*> old_instances,
                     int new_stages, double cv);
  void OnMigrationDone(PipelineInstance* old_instance, const MigrationResult& result);
  // Ends one session of `model`'s wave: unpins its endpoints, and the whole wave once no
  // session is left. A finished session passes target_id -1: its target stays pinned
  // while the wave's other sessions may still feed it.
  void EndMigration(ModelContext& model, int source_id, int target_id);
  // Seeds the host cache with the parameters of every stage on a usable GPU. A dead
  // stage's server may be gone, and caching from it would warm-start from memory that
  // no longer exists.
  void CacheStageParams(PipelineInstance* instance);
  std::vector<bool> WarmFlags(const ModelContext& model, const PipelinePlan& plan,
                              const std::vector<GpuId>& gpus) const;
  void OnRequestComplete(Request* request) override;

  // Stable addresses: controller callbacks capture raw ModelContext pointers.
  std::vector<std::unique_ptr<ModelContext>> contexts_;
  HierarchicalResourceGraph hrg_;
  HostParamCache host_cache_;
  AffinityScheduler affinity_;
  TopologyAwarePlacer placer_;
  std::unique_ptr<PeriodicTask> control_task_;

  int64_t refactor_count_ = 0;
  TimeNs last_pause_ = 0;
  TimeNs total_pause_ = 0;
  Bytes kv_migrated_bytes_ = 0;
  // Finished sessions are erased at the next BeginRefactor. Aborted ones stay: a
  // pending snapshot or delta transfer callback may still hold their `this`.
  std::vector<std::unique_ptr<MigrationSession>> sessions_;
  // Instances pinned by an in-flight migration (sources and targets), keyed by
  // instance id -> model id: exempt from scale-in until the model's wave completes.
  std::map<int, int> migration_pinned_;
  // Servers whose HRG load streams are still open per loading instance; entries are
  // erased by RetireLoadStreams (estimated-finish event or early release).
  std::map<int, std::vector<ServerId>> pending_load_streams_;
  // Eq. 10 masks for requests displaced by a failure under kReform, keyed by request
  // id; erased when the request completes (its recompute pass rebuilt the KV).
  std::map<RequestId, std::unique_ptr<KvValidityMask>> recovery_masks_;
  int64_t kv_invalidated_tokens_ = 0;

  // -- Fail-slow state -------------------------------------------------------------------
  // Shared across models (built from the first deployment's HealthConfig when enabled);
  // its quarantine mask is lent to the placer for the lifetime of this system.
  std::unique_ptr<HealthMonitor> health_monitor_;
  // Last-sampled per-stage (observed, base) busy counters per instance id, so each
  // control tick reports window deltas rather than lifetime totals.
  std::map<int, std::vector<std::pair<TimeNs, TimeNs>>> health_sampled_;
  // Instances awaiting paced evacuation off quarantined servers, in flag order.
  std::vector<int> evacuation_queue_;
  int64_t health_migrations_ = 0;
  // Stuck-loader restarts already spent per instance id (satellite of the fail-slow
  // work: restarts are capped so genuinely slow hardware cannot churn forever).
  std::map<int, int> loader_restarts_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_CORE_FLEXPIPE_SYSTEM_H_
