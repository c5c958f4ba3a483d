// Experiment environment and workload runner.
//
// Benches, tests and examples all need the same scaffolding: a simulated cluster with
// fragmentation applied, a network/transfer fabric, a calibrated cost model, granularity
// ladders for the models under test, and a loop that feeds a workload into one or more
// serving systems and runs the virtual clock. Each serving system mutates cluster state,
// so comparative experiments construct a fresh ExperimentEnv per system.
#ifndef FLEXPIPE_SRC_CORE_EXPERIMENT_H_
#define FLEXPIPE_SRC_CORE_EXPERIMENT_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/allocator.h"
#include "src/cluster/fragmentation.h"
#include "src/cluster/network.h"
#include "src/cluster/topology.h"
#include "src/common/thread_annotations.h"
#include "src/core/serving.h"
#include "src/model/cost_model.h"
#include "src/model/profiler.h"
#include "src/partition/partitioner.h"
#include "src/runtime/transfer.h"
#include "src/sim/simulation.h"
#include "src/trace/streaming.h"
#include "src/trace/workload.h"

namespace flexpipe {

struct ExperimentEnvConfig {
  ClusterConfig cluster = EvalClusterConfig();
  FragmentationProfile fragmentation = ProfileClusterC1();
  bool apply_fragmentation = true;
  // Periodic background churn: every `churn_interval`, re-sample this GPU fraction.
  TimeNs churn_interval = 30 * kSecond;
  double churn_fraction = 0.05;
  NetworkConfig network;
  AllocatorConfig allocator;
  CostModelConfig cost;
  PartitionerConfig partitioner;
  std::vector<ModelSpec> models = {Opt66B()};
  uint64_t seed = 42;
};

class FLEXPIPE_THREAD_HOSTILE ExperimentEnv {
 public:
  explicit ExperimentEnv(const ExperimentEnvConfig& config);
  ExperimentEnv(const ExperimentEnv&) = delete;
  ExperimentEnv& operator=(const ExperimentEnv&) = delete;

  Simulation& sim() { return sim_; }
  Cluster& cluster() { return cluster_; }
  NetworkModel& network() { return network_; }
  TransferEngine& transfer() { return transfer_; }
  ClusterAllocator& allocator() { return allocator_; }
  FragmentationGenerator& fragmentation() { return fragmentation_; }
  const CostModel& cost_model() const { return cost_model_; }
  const GranularityLadder& ladder(const std::string& model_name) const;
  const GranularityLadder& ladder(int model_index) const;
  const ExperimentEnvConfig& config() const { return config_; }

  SystemContext Context();

  // Starts the periodic background-churn task (idempotent).
  void StartChurn();

 private:
  ExperimentEnvConfig config_;
  Simulation sim_;
  Cluster cluster_;
  NetworkModel network_;
  TransferEngine transfer_;
  ClusterAllocator allocator_;
  FragmentationGenerator fragmentation_;
  CostModel cost_model_;
  std::vector<std::string> model_order_;
  std::map<std::string, GranularityLadder> ladders_;
  std::unique_ptr<PeriodicTask> churn_task_;
};

struct RunOptions {
  TimeNs horizon = 0;            // 0 = stream end_time() + warmup + drain_grace
  TimeNs drain_grace = 30 * kSecond;
  // Deploy-then-measure: systems start at t=0 but arrivals shift by `warmup`, so
  // initial parameter loading happens before traffic (the paper measures warm fleets).
  TimeNs warmup = 0;
  bool enable_churn = true;
  // Virtual-time spacing of the periodic invariant audits in FLEXPIPE_AUDIT builds
  // (ignored otherwise); <= 0 disables. Audits are read-only, so enabling them never
  // changes results — a corrupt structure aborts the run instead.
  TimeNs audit_interval = 250 * kMillisecond;
};

struct StreamingRunReport {
  int64_t submitted = 0;
  TimeNs ran_until = 0;
  TimeNs warmup = 0;
  // Events consumed by the periodic auditor itself (0 outside FLEXPIPE_AUDIT builds).
  // Subtract from Simulation::executed_events() to compare event counts across builds.
  int64_t audit_events = 0;
  // High-water mark of concurrently live Request objects (queued + in flight): the
  // streaming runner recycles completed requests through a pool, so this — not the
  // trace length — bounds request memory.
  size_t peak_live_requests = 0;
  TimeNs measured_span() const { return ran_until - warmup; }
};

// Recycling pool for streamed requests. Slab-backed (deque: stable addresses), with a
// free list refilled by the systems' release hooks — the slab's size is the high-water
// mark of concurrently live requests, not the trace length.
class FLEXPIPE_THREAD_HOSTILE RequestPool {
 public:
  Request* Acquire(const RequestSpec& spec, TimeNs warmup);
  void Release(Request* request);

  // Currently live (queued + in flight) requests; the zero-loss accounting in the
  // failure benches checks submitted == completed + live after the drain.
  size_t live() const { return live_; }
  size_t peak_live() const { return peak_live_; }

 private:
  std::deque<Request> slab_;
  std::vector<Request*> free_;
  size_t live_ = 0;
  size_t peak_live_ = 0;
};

class PeriodicSimulationAuditor;

// Caller-owned streaming harness: the request pool, release hooks and arrival driver
// that RunStreamingWorkload used to own internally. Owning them here lets chained-phase
// scenarios (pre-storm warmup -> storm -> drain) run several streams back to back while
// sharing ONE pool — a request displaced by a fault in phase 2 was acquired in phase 1,
// so per-phase pools would break the recycling (and the zero-loss accounting).
//
// The first RunPhase installs the release hooks, starts the systems (and churn /
// debug-build auditor per its options); later phases reuse all of it. Each phase's
// stream must emit arrivals at absolute times >= the current simulated time. Finish()
// tears the hooks down; the pool must outlive every request still in flight, so keep
// the harness alive until the systems are done.
class FLEXPIPE_THREAD_HOSTILE WorkloadHarness {
 public:
  WorkloadHarness(ExperimentEnv& env, std::vector<ServingSystemBase*> systems_by_model);
  ~WorkloadHarness();
  WorkloadHarness(const WorkloadHarness&) = delete;
  WorkloadHarness& operator=(const WorkloadHarness&) = delete;

  // Drains `stream` until options.horizon (0 = stream end + warmup + drain_grace).
  // The report's `submitted` counts this phase only; peak_live/audit_events are
  // cumulative across phases.
  StreamingRunReport RunPhase(RequestStream& stream, const RunOptions& options = RunOptions{});

  // Finish()es the systems and detaches the release hooks. Idempotent; no RunPhase
  // calls afterwards.
  void Finish();

  int64_t total_submitted() const { return total_submitted_; }
  const RequestPool& pool() const { return pool_; }

 private:
  ExperimentEnv& env_;
  std::vector<ServingSystemBase*> systems_;
  RequestPool pool_;
  std::unique_ptr<PeriodicSimulationAuditor> auditor_;
  int64_t total_submitted_ = 0;
  // Highest request id issued so far: later phases rebase their stream's dense 1-based
  // ids past it, so ids stay unique across the harness (id collisions would corrupt
  // id-keyed state like KV residency).
  RequestId max_id_seen_ = 0;
  bool started_ = false;
  bool finished_ = false;
};

// The workload runner: requests are drawn from `stream` one at a time by a
// self-rescheduling arrival event (exactly one pending arrival exists at any moment),
// and completed requests are recycled. Memory — request storage and engine arena
// alike — stays proportional to in-flight work, so multi-hour multi-million-request
// scenarios fit in a flat footprint. With exactly one system, every request goes to
// it (its model-aware router handles multi-model workloads on the shared cluster);
// with several, `systems_by_model[i]` serves requests whose spec.model_index == i.
// A trace already in memory runs through a VectorRequestStream. Thin wrapper over a
// single-phase WorkloadHarness.
StreamingRunReport RunStreamingWorkload(ExperimentEnv& env,
                                        std::vector<ServingSystemBase*> systems_by_model,
                                        RequestStream& stream,
                                        const RunOptions& options = RunOptions{});

// Single-system convenience overload.
StreamingRunReport RunStreamingWorkload(ExperimentEnv& env, ServingSystemBase& system,
                                        RequestStream& stream,
                                        const RunOptions& options = RunOptions{});

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_CORE_EXPERIMENT_H_
