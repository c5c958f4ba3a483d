// Debug-build simulation auditor: cross-module invariant checks.
//
// The engine, the cluster's free-GPU index, the router and the scaling layer each
// maintain redundant state for speed (slot backlinks, bucketed maxima, incremental
// queue counts, per-level stream tallies). A bug that desynchronizes any of those
// from its ground truth corrupts results silently — runs stay deterministic, just
// deterministically wrong. The auditor recomputes every redundant structure from
// first principles and reports disagreements.
//
// Audits return violation strings instead of aborting so tests can assert that a
// deliberately seeded corruption is detected; the periodic wrapper CHECK-fails on
// the first violation. Everything here is debug tooling: the audit functions are
// always compiled (tests run them in every build), but the periodic hook inside
// the workload runners only engages when the build sets -DFLEXPIPE_AUDIT=ON.
#ifndef FLEXPIPE_SRC_SIM_AUDITOR_H_
#define FLEXPIPE_SRC_SIM_AUDITOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/sim/simulation.h"

namespace flexpipe {

class Cluster;
class HierarchicalResourceGraph;
class Router;
class ServingSystemBase;
struct Request;

// True when the build was configured with -DFLEXPIPE_AUDIT=ON (periodic audits
// active inside the workload runner, WorkloadHarness).
#if defined(FLEXPIPE_AUDIT)
inline constexpr bool kAuditBuild = true;
#else
inline constexpr bool kAuditBuild = false;
#endif

// One human-readable line per violated invariant; empty means the audit passed.
using AuditReport = std::vector<std::string>;

class FLEXPIPE_THREAD_COMPATIBLE SimulationAuditor {
 public:
  // Event-arena slot accounting: every live slot is referenced by exactly one heap
  // entry, whose index is the slot's backlink, and every heap entry references a live
  // slot; the free list covers exactly the slots without a backlink and holds no
  // callback state; the heap satisfies the 4-ary heap property.
  static AuditReport AuditArena(const Simulation& sim);

  // Free-GPU index: per-server free-memory/headroom maxima equal a from-scratch
  // recomputation over the server's GPUs, every server sits in exactly the bucket
  // its maximum maps to, and the intrusive bucket lists are well-linked.
  static AuditReport AuditFreeGpuIndex(const Cluster& cluster);

  // Router bookkeeping: the incremental queue total equals the sum of per-model
  // queue sizes, every queued request sits in its own model's queue, and the
  // per-model instance buckets are exactly the registered fleet partitioned by
  // model in registration order.
  static AuditReport AuditRouter(const Router& router);

  // Placement registry vs instance records: the (gpu, model) reference counts the
  // registry holds equal the counts implied by the system's unreleased instances.
  static AuditReport AuditPlacementRegistry(const ServingSystemBase& system);

  // Hierarchical resource graph: per-server load streams sum to each rack's tally
  // and to the cluster total, nothing is negative, and the per-level tables match
  // the cluster's shape.
  static AuditReport AuditHrg(const HierarchicalResourceGraph& hrg);

  // Failure-domain consistency after recovery settles: no unreleased instance stands
  // entirely on unusable GPUs (a correlated fault that takes a whole pipeline must
  // fail the instance synchronously — a surviving record is a zombie serving nothing),
  // and servers whose every GPU is dead hold zero free-index entries (max-free 0, so
  // placement can never land there). Fault handling runs to completion inside the
  // fault event, so this holds at every audit point between events.
  static AuditReport AuditFailureDomains(const Cluster& cluster,
                                         const ServingSystemBase& system);

  // Fail-slow perf-state consistency: every per-server compute/link factor lies in
  // (0, 1], and the cached degraded-server count — the one integer the hot paths
  // compare against zero to skip all degradation math — equals a from-scratch count
  // over the factor vectors. A stale count in either direction is silent corruption:
  // too low and live slowdowns stop being priced into stage times; too high and a
  // fully healed fleet keeps paying the degraded-path lookups forever.
  static AuditReport AuditPerfState(const Cluster& cluster);

  // Runs every audit: arena, free-GPU index, then each system's own invariants via
  // ServingSystemBase::CollectAuditViolations (router, registry, and whatever the
  // subclass adds — FlexPipe contributes the HRG and host-cache accounting).
  static AuditReport AuditAll(const Simulation& sim, const Cluster& cluster,
                              const std::vector<ServingSystemBase*>& systems);

  // -- Test-only corruption helpers ----------------------------------------------------
  // Seed a specific inconsistency through the same friend access the audits use, so
  // audit_test can assert each detector actually fires. Never call outside tests.

  // Acquires an arena slot, marks it live, but enqueues it nowhere: a leaked slot.
  static void TestOnlyLeakArenaSlot(Simulation* sim);
  // Inflates one server's cached free-memory maximum so it no longer matches its
  // GPUs (a stale bucket-index entry).
  static void TestOnlyCorruptBucketIndex(Cluster* cluster, int32_t server);
  // Marks a GPU failed without re-deriving its server's cached maxima: the bucket
  // index keeps counting the dead GPU, the exact inconsistency the fault path must
  // never produce (and the dead-GPU detector attributes by name).
  static void TestOnlyFailGpuWithoutReindex(Cluster* cluster, int32_t gpu);
  // Enqueues `request` under `wrong_model`'s queue with the incremental counters
  // kept consistent, so only the queue/model-mismatch detector fires.
  static void TestOnlyMisrouteQueuedRequest(Router* router, Request* request,
                                            int wrong_model);
  // Registers a phantom (gpu, model) pair no instance record backs.
  static void TestOnlyCorruptRegistry(ServingSystemBase* system, int32_t gpu, int model_id);
  // Degrades one server's perf factor without bumping the cached degraded-server
  // count: the hot paths would skip pricing the slowdown, the exact staleness the
  // perf-state audit attributes.
  static void TestOnlyCorruptPerfState(Cluster* cluster, int32_t server);
};

// Runs AuditAll every `interval` of virtual time and CHECK-fails on the first
// violation. The workload runners instantiate one in FLEXPIPE_AUDIT builds.
class FLEXPIPE_THREAD_HOSTILE PeriodicSimulationAuditor {
 public:
  PeriodicSimulationAuditor(Simulation* sim, const Cluster* cluster,
                            std::vector<ServingSystemBase*> systems, TimeNs interval);
  ~PeriodicSimulationAuditor();
  PeriodicSimulationAuditor(const PeriodicSimulationAuditor&) = delete;
  PeriodicSimulationAuditor& operator=(const PeriodicSimulationAuditor&) = delete;

  int64_t audits_run() const { return audits_; }

 private:
  void RunOnce();

  Simulation* sim_;
  const Cluster* cluster_;
  std::vector<ServingSystemBase*> systems_;
  int64_t audits_ = 0;
  std::unique_ptr<PeriodicTask> task_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_SIM_AUDITOR_H_
