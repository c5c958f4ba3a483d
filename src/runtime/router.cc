#include "src/runtime/router.h"

#include <algorithm>

#include "src/common/macros.h"

namespace flexpipe {

Router::Router(Simulation* sim) : sim_(sim) { FLEXPIPE_CHECK(sim != nullptr); }

void Router::RegisterInstance(PipelineInstance* instance) {
  FLEXPIPE_CHECK(instance != nullptr);
  instances_.push_back(instance);
  instances_by_model_[instance->model_id()].push_back(instance);
  PumpModel(instance->model_id());
}

void Router::DeregisterInstance(int instance_id) {
  auto drop = [instance_id](std::vector<PipelineInstance*>& list) {
    list.erase(std::remove_if(list.begin(), list.end(),
                              [instance_id](const PipelineInstance* i) {
                                return i->id() == instance_id;
                              }),
               list.end());
  };
  drop(instances_);
  for (auto& [model_id, list] : instances_by_model_) {
    drop(list);
  }
  // Re-dispatch immediately: queued requests must not sit idle until the next
  // unrelated Submit (that wait would be charged to queueing delay).
  Pump();
}

void Router::Submit(Request* request) {
  FLEXPIPE_CHECK(request != nullptr);
  ++total_submitted_;
  ModelQueue& queue = queues_[request->model_id()];
  queue.requests.push_back(request);
  ++total_queued_;
  NoteQueueHighWater();
  // Not a capacity event: if the head is already blocked, this request queues behind it
  // without rescanning the fleet.
  PumpQueue(queue, /*capacity_event=*/false);
}

void Router::RequeueFront(std::vector<Request*> requests) {
  // Preserve relative order within each model: insert in reverse at the front.
  for (auto it = requests.rbegin(); it != requests.rend(); ++it) {
    queues_[(*it)->model_id()].requests.push_front(*it);
    ++total_queued_;
  }
  NoteQueueHighWater();
  // The heads changed, so blocked verdicts are stale: full capacity-event rescan.
  Pump();
}

int Router::queue_length_for(int model_id) const {
  auto it = queues_.find(model_id);
  return it != queues_.end() ? static_cast<int>(it->second.requests.size()) : 0;
}

void Router::NoteQueueHighWater() {
  max_queue_length_ = std::max(max_queue_length_, static_cast<int64_t>(total_queued_));
}

PipelineInstance* Router::PickInstance(const Request& request) const {
  // Least-loaded active instance serving the request's model. Requests are never
  // parked on still-loading instances: they wait in the router queue — where any
  // instance that frees capacity can claim them — and loading instances pump the
  // router the moment they activate.
  auto bucket = instances_by_model_.find(request.model_id());
  if (bucket == instances_by_model_.end()) {
    return nullptr;
  }
  PipelineInstance* best_active = nullptr;
  double best_load = 0.0;
  for (PipelineInstance* inst : bucket->second) {
    if (inst->state() != InstanceState::kActive || !inst->CanAdmit(request)) {
      continue;
    }
    double load = inst->LoadFraction();
    if (best_active == nullptr || load < best_load) {
      best_load = load;
      best_active = inst;
    }
  }
  return best_active;
}

void Router::PumpQueue(ModelQueue& queue, bool capacity_event) {
  if (queue.blocked && !capacity_event) {
    return;  // head already failed placement and nothing has freed capacity since
  }
  while (!queue.requests.empty()) {
    Request* request = queue.requests.front();
    PipelineInstance* target = PickInstance(*request);
    if (target == nullptr) {
      break;
    }
    queue.requests.pop_front();
    --total_queued_;
    target->Admit(request);
  }
  queue.blocked = !queue.requests.empty();
}

void Router::Pump() {
  // Models drain independently: one model's starved queue must not head-of-line block
  // another model's dispatch.
  for (auto& [model_id, queue] : queues_) {
    PumpQueue(queue, /*capacity_event=*/true);
  }
}

void Router::PumpModel(int model_id) {
  auto it = queues_.find(model_id);
  if (it != queues_.end()) {
    PumpQueue(it->second, /*capacity_event=*/true);
  }
}

}  // namespace flexpipe
