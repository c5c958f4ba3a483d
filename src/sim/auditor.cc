#include "src/sim/auditor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "src/cluster/topology.h"
#include "src/common/macros.h"
#include "src/core/allocation.h"
#include "src/core/scaling.h"
#include "src/core/serving.h"
#include "src/runtime/instance.h"
#include "src/runtime/request.h"
#include "src/runtime/router.h"

namespace flexpipe {

namespace {

// printf-free formatting helper: Violation(out) << "..." << value; appends one line.
class Violation {
 public:
  explicit Violation(AuditReport* out) : out_(out) {}
  ~Violation() { out_->push_back(stream_.str()); }
  template <typename T>
  Violation& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  AuditReport* out_;
  std::ostringstream stream_;
};

}  // namespace

AuditReport SimulationAuditor::AuditArena(const Simulation& sim) {
  AuditReport out;
  const auto& slots = sim.slots_;
  const size_t slot_count = slots.size();
  // How many heap entries reference each slot; must end at exactly 1 for live slots.
  std::vector<uint32_t> refs(slot_count, 0);

  for (size_t i = 0; i < sim.heap_.size(); ++i) {
    const Simulation::HeapEntry& e = sim.heap_[i];
    uint32_t slot = e.slot();
    if (slot >= slot_count) {
      Violation(&out) << "heap entry " << i << " references slot " << slot
                      << " beyond the slab (" << slot_count << " slots)";
    } else {
      ++refs[slot];
      if (slots[slot].pos != i) {
        Violation(&out) << "heap entry " << i << " has backlink " << slots[slot].pos
                        << " on slot " << slot;
      }
    }
    if (e.when < sim.now_) {
      Violation(&out) << "heap entry " << i << " is scheduled at " << e.when
                      << " which is before now=" << sim.now_;
    }
    if (i > 0) {
      const Simulation::HeapEntry& parent = sim.heap_[(i - 1) / 4];
      if (Simulation::EarlierThan(e, parent)) {
        Violation(&out) << "heap property violated at entry " << i;
      }
    }
  }

  // Free-list walk: no node has a heap backlink, no cycles, length matches the free count.
  size_t free_list_len = 0;
  for (uint32_t s = sim.free_head_; s != Simulation::kNil;) {
    if (s >= slot_count) {
      Violation(&out) << "free list reaches slot " << s << " beyond the slab";
      break;
    }
    if (slots[s].pos != Simulation::kNil) {
      Violation(&out) << "free-list node " << s << " still has a heap backlink";
      break;
    }
    if (++free_list_len > slot_count) {
      Violation(&out) << "free list has a cycle";
      break;
    }
    s = slots[s].next_free;
  }

  size_t free_slots = 0;
  for (size_t s = 0; s < slot_count; ++s) {
    const Simulation::Slot& slot = slots[s];
    if (slot.pos == Simulation::kNil) {
      ++free_slots;
      if (slot.fn != nullptr) {
        Violation(&out) << "freed slot " << s << " still holds a callback (leaked capture state)";
      }
      if (refs[s] != 0) {
        Violation(&out) << "freed slot " << s << " is referenced by a heap entry "
                        << "(stale generation in a live heap)";
      }
    } else {
      if (refs[s] != 1) {
        Violation(&out) << "live slot " << s << " is referenced by " << refs[s]
                        << " heap entries (leaked or duplicated slot)";
      }
      if (slot.fn == nullptr) {
        Violation(&out) << "live slot " << s << " has no callback";
      }
    }
  }
  if (free_slots != free_list_len && out.empty()) {
    // Only meaningful when the walk itself terminated cleanly.
    Violation(&out) << "free list covers " << free_list_len << " slots but " << free_slots
                    << " are free";
  }
  return out;
}

AuditReport SimulationAuditor::AuditFreeGpuIndex(const Cluster& cluster) {
  AuditReport out;
  const size_t servers = static_cast<size_t>(cluster.server_count());
  if (cluster.server_max_free_.size() != servers || cluster.server_bucket_.size() != servers ||
      cluster.bucket_next_.size() != servers || cluster.bucket_prev_.size() != servers ||
      cluster.server_max_headroom_.size() != servers) {
    Violation(&out) << "free-index tables are not sized to " << servers << " servers";
    return out;
  }

  for (ServerId sid = 0; sid < cluster.server_count(); ++sid) {
    const Server& s = cluster.server(sid);
    // Same recomputation RecomputeServer performs, from the GPUs themselves: failed or
    // partitioned GPUs contribute nothing. The all-GPU maximum is kept alongside so the
    // most likely fault-path bug — an index that still counts a dead GPU — is reported
    // as itself rather than as a generic stale maximum.
    Bytes mx = 0;
    Bytes mx_all = 0;
    double headroom = 0.0;
    for (GpuId g : s.gpus) {
      const Gpu& gpu = cluster.gpu(g);
      mx_all = std::max(mx_all, gpu.free_memory());
      if (!cluster.GpuUsable(g)) {
        continue;
      }
      mx = std::max(mx, gpu.free_memory());
      headroom = std::max(headroom, std::max(0.0, 1.0 - gpu.sm_utilization()));
    }
    if (cluster.server_max_free_[static_cast<size_t>(sid)] != mx) {
      if (mx_all != mx && cluster.server_max_free_[static_cast<size_t>(sid)] == mx_all) {
        Violation(&out) << "server " << sid
                        << " free-GPU index still counts a failed/partitioned GPU (cached "
                        << mx_all << " but the usable maximum is " << mx << ")";
      } else {
        Violation(&out) << "server " << sid << " cached max free "
                        << cluster.server_max_free_[static_cast<size_t>(sid)]
                        << " but its GPUs say " << mx;
      }
    }
    if (cluster.server_max_headroom_[static_cast<size_t>(sid)] != headroom) {
      Violation(&out) << "server " << sid << " cached max headroom disagrees with its GPUs";
    }
    if (cluster.server_bucket_[static_cast<size_t>(sid)] != cluster.BucketFor(mx)) {
      Violation(&out) << "server " << sid << " sits in bucket "
                      << cluster.server_bucket_[static_cast<size_t>(sid)]
                      << " but its recomputed maximum maps to bucket " << cluster.BucketFor(mx);
    }
  }

  // Intrusive-list structure: every server appears exactly once, links reciprocate.
  std::vector<int> seen(servers, 0);
  for (size_t b = 0; b < cluster.bucket_head_.size(); ++b) {
    size_t walked = 0;
    for (ServerId s = cluster.bucket_head_[b]; s != kInvalidServer;
         s = cluster.bucket_next_[static_cast<size_t>(s)]) {
      if (s < 0 || static_cast<size_t>(s) >= servers || ++walked > servers) {
        Violation(&out) << "bucket " << b << " list is malformed";
        break;
      }
      ++seen[static_cast<size_t>(s)];
      if (cluster.server_bucket_[static_cast<size_t>(s)] != static_cast<int>(b)) {
        Violation(&out) << "server " << s << " is linked into bucket " << b
                        << " but tagged with bucket " << cluster.server_bucket_[static_cast<size_t>(s)];
      }
      ServerId next = cluster.bucket_next_[static_cast<size_t>(s)];
      if (next != kInvalidServer && cluster.bucket_prev_[static_cast<size_t>(next)] != s) {
        Violation(&out) << "bucket links do not reciprocate between servers " << s << " and "
                        << next;
      }
    }
    ServerId head = cluster.bucket_head_[b];
    if (head != kInvalidServer && cluster.bucket_prev_[static_cast<size_t>(head)] != kInvalidServer) {
      Violation(&out) << "bucket " << b << " head " << head << " has a dangling prev link";
    }
  }
  for (size_t s = 0; s < servers; ++s) {
    if (seen[s] != 1) {
      Violation(&out) << "server " << s << " appears " << seen[s]
                      << " times across the bucket lists";
    }
  }
  return out;
}

AuditReport SimulationAuditor::AuditRouter(const Router& router) {
  AuditReport out;
  int total = 0;
  for (const auto& [model, queue] : router.queues_) {
    total += static_cast<int>(queue.requests.size());
    for (const Request* request : queue.requests) {
      if (request->model_id() != model) {
        Violation(&out) << "request " << request->spec.id << " for model "
                        << request->model_id() << " sits in model " << model << "'s queue";
      }
    }
  }
  if (total != router.total_queued_) {
    Violation(&out) << "incremental queue total " << router.total_queued_
                    << " but queues hold " << total << " requests";
  }
  if (router.max_queue_length_ < total) {
    Violation(&out) << "queue high-water mark " << router.max_queue_length_
                    << " is below the current total " << total;
  }

  // Lost-instance hygiene: a failed (released) instance must never stay registered —
  // the router would keep dispatching onto a corpse.
  for (const PipelineInstance* instance : router.instances_) {
    if (instance->state() == InstanceState::kReleased) {
      Violation(&out) << "released instance " << instance->id() << " (model "
                      << instance->model_id() << ") is still registered with the router";
    }
  }

  // The per-model buckets must be exactly the registered fleet partitioned by model,
  // registration order preserved (tie-breaking depends on it).
  std::map<int, std::vector<const PipelineInstance*>> expected;
  for (const PipelineInstance* instance : router.instances_) {
    expected[instance->model_id()].push_back(instance);
  }
  for (const auto& [model, bucket] : router.instances_by_model_) {
    auto it = expected.find(model);
    const std::vector<const PipelineInstance*> none;
    const auto& want = it == expected.end() ? none : it->second;
    if (want.size() != bucket.size() ||
        !std::equal(want.begin(), want.end(), bucket.begin())) {
      Violation(&out) << "model " << model << "'s instance bucket (" << bucket.size()
                      << " entries) disagrees with the registered fleet (" << want.size()
                      << " instances of that model)";
    }
    if (it != expected.end()) {
      expected.erase(it);
    }
  }
  for (const auto& [model, want] : expected) {
    Violation(&out) << "model " << model << " has " << want.size()
                    << " registered instances but no bucket";
  }
  return out;
}

AuditReport SimulationAuditor::AuditPlacementRegistry(const ServingSystemBase& system) {
  AuditReport out;
  const auto& by_gpu = system.placement_registry_.by_gpu_;
  // Reference counts implied by the unreleased instance records.
  std::vector<std::vector<std::pair<int, int>>> want(by_gpu.size());
  for (const ServingSystemBase::InstanceRecord& record : system.records_) {
    if (record.released) {
      continue;
    }
    for (GpuId gpu : record.gpus) {
      if (gpu < 0 || static_cast<size_t>(gpu) >= want.size()) {
        Violation(&out) << "instance " << record.instance->id() << " reserves GPU " << gpu
                        << " outside the registry's table";
        continue;
      }
      auto& counts = want[static_cast<size_t>(gpu)];
      auto it = std::find_if(counts.begin(), counts.end(),
                             [&](const auto& mc) { return mc.first == record.model_id; });
      if (it == counts.end()) {
        counts.emplace_back(record.model_id, 1);
      } else {
        ++it->second;
      }
    }
  }
  for (size_t gpu = 0; gpu < by_gpu.size(); ++gpu) {
    for (const auto& mc : by_gpu[gpu]) {
      auto it = std::find_if(want[gpu].begin(), want[gpu].end(),
                             [&](const auto& w) { return w.first == mc.model_id; });
      int have = it == want[gpu].end() ? 0 : it->second;
      if (have != mc.count) {
        Violation(&out) << "registry holds " << mc.count << " references of model "
                        << mc.model_id << " on GPU " << gpu << " but instance records imply "
                        << have;
      }
      if (it != want[gpu].end()) {
        want[gpu].erase(it);
      }
    }
    for (const auto& w : want[gpu]) {
      Violation(&out) << "instance records imply " << w.second << " references of model "
                      << w.first << " on GPU " << gpu << " but the registry has none";
    }
  }
  return out;
}

AuditReport SimulationAuditor::AuditHrg(const HierarchicalResourceGraph& hrg) {
  AuditReport out;
  const Cluster& cluster = *hrg.cluster_;
  const size_t servers = static_cast<size_t>(cluster.server_count());
  const size_t racks = static_cast<size_t>(cluster.rack_count());
  if (hrg.server_events_.size() != servers || hrg.server_streams_.size() != servers ||
      hrg.rack_events_.size() != racks || hrg.rack_streams_.size() != racks) {
    Violation(&out) << "HRG tables are not sized to the cluster shape";
    return out;
  }
  int total_streams = 0;
  for (size_t s = 0; s < servers; ++s) {
    if (hrg.server_streams_[s] < 0) {
      Violation(&out) << "server " << s << " has negative load streams";
    }
    total_streams += hrg.server_streams_[s];
    if (!(hrg.server_events_[s].value >= 0.0) || std::isnan(hrg.server_events_[s].value)) {
      Violation(&out) << "server " << s << " has a negative or NaN scaling-event counter";
    }
  }
  for (RackId r = 0; r < cluster.rack_count(); ++r) {
    int rack_sum = 0;
    for (ServerId s : cluster.rack(r).servers) {
      rack_sum += hrg.server_streams_[static_cast<size_t>(s)];
    }
    if (rack_sum != hrg.rack_streams_[static_cast<size_t>(r)]) {
      Violation(&out) << "rack " << r << " tallies " << hrg.rack_streams_[static_cast<size_t>(r)]
                      << " load streams but its servers sum to " << rack_sum;
    }
  }
  if (total_streams != hrg.cluster_streams_) {
    Violation(&out) << "cluster tallies " << hrg.cluster_streams_
                    << " load streams but servers sum to " << total_streams;
  }
  return out;
}

AuditReport SimulationAuditor::AuditFailureDomains(const Cluster& cluster,
                                                   const ServingSystemBase& system) {
  AuditReport out;
  // Zombie detection: an unreleased instance whose every stage GPU is unusable can
  // never serve another token — the fault path was required to fail it synchronously
  // inside the fault event, so finding one here means a correlated loss slipped
  // through recovery.
  for (const ServingSystemBase::InstanceRecord& record : system.records_) {
    if (record.released || record.gpus.empty()) {
      continue;
    }
    bool any_usable = false;
    for (GpuId g : record.gpus) {
      any_usable = any_usable || cluster.GpuUsable(g);
    }
    if (!any_usable) {
      Violation(&out) << "instance " << record.instance->id() << " (model "
                      << record.model_id << ") is unreleased but every one of its "
                      << record.gpus.size()
                      << " stage GPUs is unusable (zombie after a correlated fault)";
    }
  }

  // Dead servers must be invisible to placement: if every GPU on a server has failed,
  // its cached free-memory maximum must be zero so no allocation can land there.
  for (ServerId sid = 0; sid < cluster.server_count(); ++sid) {
    const Server& s = cluster.server(sid);
    bool all_failed = !s.gpus.empty();
    for (GpuId g : s.gpus) {
      all_failed = all_failed && cluster.gpu_failed_[static_cast<size_t>(g)] != 0;
    }
    if (all_failed && cluster.server_max_free_[static_cast<size_t>(sid)] != 0) {
      Violation(&out) << "server " << sid << " (power domain " << s.power_domain
                      << ", thermal zone " << s.thermal_zone
                      << ") has every GPU failed but still advertises "
                      << cluster.server_max_free_[static_cast<size_t>(sid)]
                      << " bytes free in the placement index";
    }
  }
  return out;
}

AuditReport SimulationAuditor::AuditPerfState(const Cluster& cluster) {
  AuditReport out;
  int degraded = 0;
  for (ServerId sid = 0; sid < cluster.server_count(); ++sid) {
    double perf = cluster.server_perf_[static_cast<size_t>(sid)];
    double link = cluster.server_link_factor_[static_cast<size_t>(sid)];
    if (!(perf > 0.0 && perf <= 1.0)) {
      Violation(&out) << "server " << sid << " compute perf factor " << perf
                      << " is outside (0, 1]";
    }
    if (!(link > 0.0 && link <= 1.0)) {
      Violation(&out) << "server " << sid << " link factor " << link
                      << " is outside (0, 1]";
    }
    if (perf != 1.0 || link != 1.0) {
      ++degraded;
    }
  }
  if (degraded != cluster.degraded_server_count_) {
    Violation(&out) << "cluster caches " << cluster.degraded_server_count_
                    << " degraded servers but the perf/link factors imply " << degraded
                    << " (stale count: degradation pricing is skipped or overapplied)";
  }
  return out;
}

AuditReport SimulationAuditor::AuditAll(const Simulation& sim, const Cluster& cluster,
                                        const std::vector<ServingSystemBase*>& systems) {
  AuditReport out = AuditArena(sim);
  AuditReport index = AuditFreeGpuIndex(cluster);
  out.insert(out.end(), index.begin(), index.end());
  AuditReport perf = AuditPerfState(cluster);
  out.insert(out.end(), perf.begin(), perf.end());
  for (const ServingSystemBase* system : systems) {
    AuditReport sys;
    system->CollectAuditViolations(&sys);
    for (std::string& v : sys) {
      out.push_back("[" + system->name() + "] " + std::move(v));
    }
  }
  return out;
}

void SimulationAuditor::TestOnlyLeakArenaSlot(Simulation* sim) {
  uint32_t slot = sim->AcquireSlot();
  Simulation::Slot& s = sim->slots_[slot];
  s.fn = [] {};
  s.pos = 0;  // bogus: nothing in the heap points back at this slot
}

void SimulationAuditor::TestOnlyCorruptBucketIndex(Cluster* cluster, int32_t server) {
  cluster->server_max_free_[static_cast<size_t>(server)] += kGiB;
}

void SimulationAuditor::TestOnlyFailGpuWithoutReindex(Cluster* cluster, int32_t gpu) {
  cluster->gpu_failed_[static_cast<size_t>(gpu)] = 1;
  cluster->gpu_usable_[static_cast<size_t>(gpu)] = 0;
  ++cluster->failed_gpu_count_;
  // Deliberately no RecomputeServer: the cached maxima keep counting the dead GPU,
  // which is exactly the inconsistency the dead-GPU detector attributes.
}

void SimulationAuditor::TestOnlyMisrouteQueuedRequest(Router* router, Request* request,
                                                      int wrong_model) {
  Router::ModelQueue& queue = router->queues_[wrong_model];
  queue.requests.push_back(request);
  ++router->total_queued_;
  router->max_queue_length_ =
      std::max(router->max_queue_length_, static_cast<int64_t>(router->total_queued_));
}

void SimulationAuditor::TestOnlyCorruptRegistry(ServingSystemBase* system, int32_t gpu,
                                                int model_id) {
  system->placement_registry_.Add(gpu, model_id);
}

void SimulationAuditor::TestOnlyCorruptPerfState(Cluster* cluster, int32_t server) {
  // Deliberately bypasses SetServerPerf: the factor changes but the cached degraded
  // count does not, which is exactly the staleness AuditPerfState attributes.
  cluster->server_perf_[static_cast<size_t>(server)] = 0.5;
}

PeriodicSimulationAuditor::PeriodicSimulationAuditor(Simulation* sim, const Cluster* cluster,
                                                     std::vector<ServingSystemBase*> systems,
                                                     TimeNs interval)
    : sim_(sim), cluster_(cluster), systems_(std::move(systems)) {
  FLEXPIPE_CHECK(sim_ != nullptr && cluster_ != nullptr);
  task_ = std::make_unique<PeriodicTask>(sim_, interval, [this] { RunOnce(); });
}

PeriodicSimulationAuditor::~PeriodicSimulationAuditor() = default;

void PeriodicSimulationAuditor::RunOnce() {
  AuditReport report = SimulationAuditor::AuditAll(*sim_, *cluster_, systems_);
  if (!report.empty()) {
    std::ostringstream msg;
    msg << "simulation audit failed at t=" << sim_->now() << " with " << report.size()
        << " violation(s):";
    for (const std::string& v : report) {
      msg << "\n  " << v;
    }
    FLEXPIPE_CHECK_MSG(false, msg.str().c_str());
  }
  ++audits_;
}

}  // namespace flexpipe
