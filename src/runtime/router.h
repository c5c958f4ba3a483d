// Request router / gateway for the instances of one serving system.
//
// The router is model-aware: it keeps one FIFO queue per model and only dispatches a
// request onto an instance serving the same model, so several models can contend for
// one shared cluster without cross-talk. Within a model, arrivals go to the
// least-loaded instance that can admit them; when every matching instance is full they
// wait in that model's queue (this queue is what grows 4x in Fig. 3b as CV rises).
// Refactoring updates routing by registering the new instance and re-queueing whatever
// the old instance hands back ("update gateway" in Fig. 6's sequence).
//
// Dispatch is the hottest router path at cluster scale, so instances are indexed per
// model (a model id is fixed for an instance's lifetime): PickInstance and queue
// pumping scan only the candidate fleet for the request's model instead of every
// registered instance. Within a model the index preserves registration order, which
// keeps tie-breaking — and therefore runs — bit-identical to the full-scan router.
#ifndef FLEXPIPE_SRC_RUNTIME_ROUTER_H_
#define FLEXPIPE_SRC_RUNTIME_ROUTER_H_

#include <deque>
#include <map>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/runtime/instance.h"
#include "src/runtime/request.h"
#include "src/sim/simulation.h"

namespace flexpipe {

class FLEXPIPE_THREAD_HOSTILE Router {
 public:
  explicit Router(Simulation* sim);

  void RegisterInstance(PipelineInstance* instance);
  void DeregisterInstance(int instance_id);

  // New arrival from the workload.
  void Submit(Request* request);

  // Returns requests (e.g. from a halted instance) to the head of their model's queue
  // so they are not penalised twice.
  void RequeueFront(std::vector<Request*> requests);

  // Dispatches as much of every model queue as instances will admit. Treated as a
  // capacity event: saturated queues are rescanned.
  void Pump();

  // Dispatches one model's queue after one of its instances reported a capacity event
  // (activation, freed slots, registration). Capacity events are per-instance and
  // instances serve exactly one model, so freed capacity can only unblock its own
  // model's queue — instance pump callbacks call this instead of rescanning every
  // fleet.
  void PumpModel(int model_id);

  // Total queued requests across all models / for one model.
  int queue_length() const { return total_queued_; }
  int queue_length_for(int model_id) const;
  int64_t total_submitted() const { return total_submitted_; }
  int64_t max_queue_length() const { return max_queue_length_; }
  const std::vector<PipelineInstance*>& instances() const { return instances_; }

 private:
  // Debug-build invariant audits cross-check the incremental counters and buckets.
  friend class SimulationAuditor;

  struct ModelQueue {
    std::deque<Request*> requests;
    // Set when the head request could not be placed. Placement depends only on fleet
    // state, and every path that grows a model's capacity (registration, activation,
    // iteration completions, migrations) rescans with capacity_event=true — so a
    // Submit landing behind a blocked head can skip the provably futile fleet scan.
    bool blocked = false;
  };

  PipelineInstance* PickInstance(const Request& request) const;
  void PumpQueue(ModelQueue& queue, bool capacity_event);
  void NoteQueueHighWater();

  Simulation* sim_;
  std::vector<PipelineInstance*> instances_;
  // Same instances bucketed by model id, registration order preserved per bucket.
  std::map<int, std::vector<PipelineInstance*>> instances_by_model_;
  // Ordered by model id so Pump() drains models deterministically.
  std::map<int, ModelQueue> queues_;
  int total_queued_ = 0;  // sum of queue sizes, maintained incrementally
  int64_t total_submitted_ = 0;
  int64_t max_queue_length_ = 0;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_RUNTIME_ROUTER_H_
