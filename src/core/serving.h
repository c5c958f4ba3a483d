// ServingSystem base: everything FlexPipe and the baseline systems share.
//
// A serving system owns a router, a metrics collector, and a fleet of pipeline
// instances on the simulated cluster. The base class centralizes instance lifecycle
// (GPU reservation -> provisioning delay -> parameter loading -> activation ->
// release), GPU-time accounting for the resource-efficiency figures, and the
// same-model anti-colocation registry. Subclasses add policy: when to create which
// instances at which granularity, and whether/how to adapt at runtime.
#ifndef FLEXPIPE_SRC_CORE_SERVING_H_
#define FLEXPIPE_SRC_CORE_SERVING_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/allocator.h"
#include "src/cluster/fragmentation.h"
#include "src/cluster/network.h"
#include "src/common/macros.h"
#include "src/common/thread_annotations.h"
#include "src/core/allocation.h"
#include "src/metrics/collector.h"
#include "src/model/cost_model.h"
#include "src/runtime/instance.h"
#include "src/runtime/router.h"
#include "src/runtime/transfer.h"
#include "src/sim/simulation.h"

namespace flexpipe {

struct SystemContext {
  Simulation* sim = nullptr;
  Cluster* cluster = nullptr;
  NetworkModel* network = nullptr;
  TransferEngine* transfer = nullptr;
  ClusterAllocator* allocator = nullptr;
  const CostModel* cost_model = nullptr;
  FragmentationGenerator* fragmentation = nullptr;  // optional serverless churn
  uint64_t seed = 1;
};

// Shared by the multi-model constructors: validates before front(), since the
// base-class init list must not touch an empty deployments vector.
template <typename Deployment>
TimeNs FirstDeploymentSlo(const std::vector<Deployment>& deployments) {
  FLEXPIPE_CHECK_MSG(!deployments.empty(), "at least one model deployment required");
  return deployments.front().config.default_slo;
}

class FLEXPIPE_THREAD_HOSTILE ServingSystemBase {
 public:
  ServingSystemBase(const SystemContext& ctx, std::string name, TimeNs default_slo);
  virtual ~ServingSystemBase() = default;
  ServingSystemBase(const ServingSystemBase&) = delete;
  ServingSystemBase& operator=(const ServingSystemBase&) = delete;

  // Deploys the initial fleet. Called once before arrivals start.
  virtual void Start() = 0;

  // A request arrived at the gateway. Fails fast on a model this system does not
  // serve — otherwise the request would sit forever in a queue no instance matches.
  virtual void OnArrival(Request* request);

  // End-of-run hook (cancel controllers etc.).
  virtual void Finish() {}

  // Fault notification: the listed GPUs just became unusable (dead or partitioned).
  // The base implementation is the naive teardown recovery every baseline gets: each
  // instance standing on a lost GPU is failed, its decoding requests restart from
  // token zero, and everything displaced is requeued at the front of the router —
  // exactly once, so submitted == completed + outstanding still balances. FlexPipe
  // overrides this and routes the loss through its one displacement path, which also
  // serves health evacuations.
  virtual void OnGpusLost(const std::vector<GpuId>& lost);

  // Appends one line per violated cross-module invariant (router bookkeeping,
  // placement registry vs instance records); appends nothing when consistent.
  // Subclasses extend with their own invariants (FlexPipe adds the HRG and
  // host-cache accounting). The debug-build auditor calls this periodically;
  // tests call it directly in every build.
  virtual void CollectAuditViolations(std::vector<std::string>* out) const;

  const std::string& name() const { return name_; }
  Router& router() { return router_; }
  MetricsCollector& metrics() { return metrics_; }
  const MetricsCollector& metrics() const { return metrics_; }

  // Invoked after metrics collection and the subclass completion hook, once nothing in
  // the system references the request anymore. The streaming runner recycles the
  // Request's storage from here; the pointer must not be dereferenced afterwards.
  void set_request_release_hook(std::function<void(Request*)> hook) {
    release_hook_ = std::move(hook);
  }

  // -- Fleet/resource statistics (Fig. 12, §9.6) ---------------------------------------
  // Both counts are pipeline stage slots, not distinct GPUs: every deployed stage
  // counts once, and several stages can share one GPU, so the peak can exceed the
  // cluster's GPU count.
  int reserved_gpu_count() const { return reserved_gpus_; }
  int peak_reserved_gpus() const { return peak_reserved_gpus_; }
  // ∫ reserved-GPU dt in GPU-seconds up to `now`.
  double GpuSecondsReserved(TimeNs now) const;
  // Total stage-busy time across live and retired instances.
  TimeNs TotalBusyAll() const;
  TimeNs TotalStallAll() const;
  // busy / reserved — the paper's "GPU utilization" axis.
  double MeanGpuUtilization(TimeNs now) const;
  int64_t cold_loads() const { return cold_loads_; }
  int64_t warm_loads() const { return warm_loads_; }
  double MeanAllocationWaitSec() const { return alloc_wait_s_.mean(); }
  int live_instances() const;

  // -- Failure accounting (fig15) ------------------------------------------------------
  struct FailureStats {
    int instances_lost = 0;
    int64_t requests_requeued = 0;   // displaced back to the router, exactly once each
    int64_t requests_restarted = 0;  // mid-decode progress dropped (teardown recovery)
    int64_t requests_resumed = 0;    // mid-decode progress kept via KV recompute (reform)
    // Instances whose every stage GPU was unusable at failure-handling time: a
    // correlated fault took the whole pipeline at once, leaving nothing to re-form
    // from. The fig16 spread-placement ablation compares exactly this count.
    int whole_pipeline_losses = 0;
    int64_t requests_shed = 0;       // refused at admission by brownout (fig16)
  };
  const FailureStats& failure_stats() const { return failure_stats_; }

 protected:
  // Debug-build invariant audits compare the registry against the records.
  friend class SimulationAuditor;

  struct InstanceRecord {
    std::unique_ptr<PipelineInstance> instance;
    std::vector<GpuId> gpus;
    std::vector<Bytes> reserved_bytes;
    double sm_share = 0.6;
    int model_id = 0;
    bool released = false;
    // Virtual launch time; the health-consistency audit checks no instance was
    // placed onto a server after that server's quarantine began.
    TimeNs launched_at = 0;
  };

  // Subclass hook invoked after metrics collection for each completed request.
  virtual void OnRequestComplete(Request* /*request*/) {}

  // Subclass hook invoked at the end of ReleaseInstance, after router and cluster
  // bookkeeping. Lets subclasses drop per-instance state they track outside the
  // records — e.g. parameter-load streams that must retire the moment a loading
  // instance dies, not at its originally estimated finish time.
  virtual void OnInstanceReleased(int /*instance_id*/) {}

  // Reserves the given GPUs, pays `provisioning_delay`, then loads and activates. The
  // instance registers with the router when loading begins.
  PipelineInstance* LaunchInstance(const PipelinePlan& plan, int model_id,
                                   std::vector<GpuId> gpus, std::vector<bool> warm_stages,
                                   double load_slowdown, TimeNs provisioning_delay);

  // Allocates GPUs through the substrate allocator (baseline path) and launches.
  // Returns nullptr when the cluster cannot satisfy the request.
  PipelineInstance* LaunchViaAllocator(const PipelinePlan& plan, int model_id,
                                       PlacementPolicy policy, bool distinct_servers,
                                       double load_slowdown = 1.0);

  // Releases GPUs; the instance must be drained/halted already.
  void ReleaseInstance(PipelineInstance* instance);

  InstanceRecord* FindRecord(int instance_id);

  // Live (active or still-loading/provisioning) instances serving `model_id`.
  int ActiveOrLoadingForModel(int model_id) const;

  // Unreleased instances with at least one stage on a lost GPU, in record order.
  std::vector<PipelineInstance*> UnreleasedInstancesOn(const std::vector<GpuId>& lost);

  // Fails one instance abruptly: FailNow, apply the decode policy to every extracted
  // request, release the instance, and append the displaced requests to `*displaced`
  // (caller requeues them in one batch).
  void FailInstance(PipelineInstance* instance, bool restart_decoding,
                    std::vector<Request*>* displaced);

  // The per-request decode policy for a displaced request whose KV died. A decoding
  // request either drops its generated tokens (`restart_decoding`) or keeps them and
  // charges a recompute prefill; either way it returns to kQueued. Requests that never
  // finished a prompt pass are left as they are.
  void ApplyDecodePolicy(Request* request, bool restart_decoding);

  // Requeues displaced requests at the front of the router and bumps the counters.
  void RequeueDisplaced(std::vector<Request*> displaced);

  // Brownout admission control (degraded-mode serving): refuses `request` without it
  // ever entering the router — the arrival is counted as shed and the request storage
  // is handed straight back through the release hook. The caller must not touch the
  // pointer afterwards.
  void ShedRequest(Request* request);

  FailureStats failure_stats_;

  // Subclass constructors declare every model they deploy; OnArrival enforces it, and
  // the metrics collector pre-sizes its per-model table from the declarations.
  void RegisterServedModel(int model_id) {
    served_models_.insert(model_id);
    metrics_.ReserveModels(model_id + 1);
  }

  SystemContext ctx_;
  std::string name_;
  Router router_;
  MetricsCollector metrics_;
  ModelPlacementRegistry placement_registry_;
  InstanceConfig instance_config_;
  std::vector<InstanceRecord> records_;
  int next_instance_id_ = 1;

  // Applied multiplicatively to loading durations (baselines with faster checkpoint
  // loaders — e.g. ServerlessLLM — set < 1).
  double load_speed_factor_ = 1.0;
  // Fraction of stage parameter bytes actually reserved on GPUs (< 1 models tensor
  // sharing across replicas, e.g. the Tetris baseline).
  double param_reservation_factor_ = 1.0;

 private:
  void NoteGpuDelta(int delta);

  std::function<void(Request*)> release_hook_;
  int reserved_gpus_ = 0;
  int peak_reserved_gpus_ = 0;
  double gpu_seconds_integral_ = 0.0;
  TimeNs last_gpu_change_ = 0;
  TimeNs retired_busy_ = 0;
  TimeNs retired_stall_ = 0;
  int64_t cold_loads_ = 0;
  int64_t warm_loads_ = 0;
  RunningStats alloc_wait_s_;
  std::set<int> served_models_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_CORE_SERVING_H_
