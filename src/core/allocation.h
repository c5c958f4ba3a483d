// Topology-aware GPU assignment for pipeline stages (§6.2, Eq. 6–9).
//
// Greedy solver for the constrained assignment problem: each stage of a pipeline
// instance gets the GPU maximizing throughput-per-memory, discounted by
//   * the multiplexing penalty γ(CV) = γ0 (1 + α CV²) when the GPU already hosts another
//     model's stage (Eq. 9 — bursty workloads interfere quadratically),
//   * HRG contention on servers with recent scaling activity,
//   * topology distance from the previous stage's GPU (pipelines want short hops),
// and boosted by affinity (Eq. 13) when the server holds warm parameters.
// Hard constraints: per-GPU memory (Eq. 7) and the same-model anti-colocation rule —
// two stages of one model never share a GPU, across all of that model's instances.
//
// The production path (PlaceStages) runs in O(candidates), not O(cluster): stages
// enumerate servers through the cluster's bucketed free-GPU index, per-server score
// terms (HRG penalty, affinity, topology bonus) are snapshotted into a scratch array
// once per server per call instead of per-candidate std::function invocations, and a
// per-server score upper bound prunes whole servers that cannot beat the incumbent.
// PlaceStagesReference keeps the naive full-scan argmax; both pick bit-identical GPUs
// (argmax with an explicit lowest-id tie-break), which the randomized equivalence
// suite and the placement_storm bench's speedup measurement both rely on.
#ifndef FLEXPIPE_SRC_CORE_ALLOCATION_H_
#define FLEXPIPE_SRC_CORE_ALLOCATION_H_

#include <functional>
#include <vector>

#include "src/cluster/network.h"
#include "src/cluster/topology.h"
#include "src/common/thread_annotations.h"
#include "src/partition/plan.h"

namespace flexpipe {

struct PlacementConfig {
  double gamma0 = 0.08;        // base multiplexing penalty (Eq. 9)
  double alpha_cv = 0.5;       // CV² sensitivity (Eq. 9)
  double topo_bonus_server = 0.30;  // next stage on the same server
  double topo_bonus_rack = 0.15;    // next stage in the same rack
  double affinity_weight = 0.25;
  double hrg_weight = 0.35;
  // Recovery-aware spread (opt-in): penalizes packing many stages of the pipeline
  // being placed into one rack / power domain, so a correlated failure (rack
  // partition, power-feed trip) cannot take every stage of an instance at once. The
  // penalty per candidate is weight * (stages already placed in its power domain +
  // stages already placed in its rack) / num_stages — same-rack concentration is
  // charged twice since a rack sits inside its domain. 0 (the default) skips the
  // term entirely: decisions stay bit-identical to the pre-spread placer, pinned by
  // placement_test's randomized equivalence cases.
  double domain_spread_weight = 0.0;
};

// Tracks which GPUs host which models' stages (for the anti-colocation rule and the
// multiplexing penalty). The serving system updates it on placement and release.
// Storage is a flat per-GPU vector of (model, count) pairs — GPUs host at most a
// handful of models, so a linear scan beats hashing on the placement hot path.
class FLEXPIPE_THREAD_HOSTILE ModelPlacementRegistry {
 public:
  // Pre-sizes the per-GPU table; Add() grows it on demand for ids beyond the hint.
  explicit ModelPlacementRegistry(int gpu_count_hint = 0);

  void Add(GpuId gpu, int model_id);
  void Remove(GpuId gpu, int model_id);
  bool HostsModel(GpuId gpu, int model_id) const;
  int ModelsOn(GpuId gpu) const;

 private:
  // Debug-build invariant audits compare the counts against the instance records.
  friend class SimulationAuditor;

  struct ModelCount {
    int model_id = 0;
    int count = 0;
  };
  std::vector<std::vector<ModelCount>> by_gpu_;
};

class FLEXPIPE_THREAD_HOSTILE TopologyAwarePlacer {
 public:
  // Optional scoring hooks supplied by the scaling layer:
  //   hrg_penalty(server)    in [0, 1], 1 = heavily contended
  //   affinity_bonus(server) in [0, 1], 1 = fully warm
  // Invoked at most once per candidate server per PlaceStages call (the results are
  // snapshotted), so they may close over per-call state cheaply.
  using ServerScoreFn = std::function<double(ServerId)>;

  TopologyAwarePlacer(Cluster* cluster, const NetworkModel* network,
                      const ModelPlacementRegistry* registry, const PlacementConfig& config);

  // Chooses one GPU per stage for `plan` (model `model_id`, workload CV `cv`).
  // Does NOT reserve memory — the caller commits the placement. Returns empty when the
  // memory or anti-colocation constraints cannot be met.
  std::vector<GpuId> PlaceStages(const PipelinePlan& plan, int model_id, double cv,
                                 const ServerScoreFn& hrg_penalty,
                                 const ServerScoreFn& affinity_bonus) const;

  // Naive full-cluster scan (the pre-index implementation, kept verbatim): reference
  // for the randomized equivalence suite and the placement_storm bench's baseline mode.
  std::vector<GpuId> PlaceStagesReference(const PipelinePlan& plan, int model_id, double cv,
                                          const ServerScoreFn& hrg_penalty,
                                          const ServerScoreFn& affinity_bonus) const;

  const PlacementConfig& config() const { return config_; }

  // Health-driven quarantine (opt-in): a per-server byte mask of servers the placer
  // must never select — flagged stragglers the health monitor has pulled from the
  // candidate set. The pointer is borrowed (the monitor owns and updates the mask in
  // place); null, or a mask of all zeros, leaves placement bit-identical to the
  // pre-quarantine placer (pinned by placement_test). Checked identically in both
  // PlaceStages and PlaceStagesReference so the equivalence contract holds under
  // quarantine too.
  void set_excluded_servers(const std::vector<uint8_t>* mask) {
    excluded_servers_ = mask;
  }
  const std::vector<uint8_t>* excluded_servers() const { return excluded_servers_; }

 private:
  // Per-server score terms snapshotted once per PlaceStages call; `epoch` tags
  // validity so the scratch array never needs clearing between calls.
  struct ServerScratch {
    uint64_t epoch = 0;
    double hrg_term = 0.0;       // config.hrg_weight * hrg_penalty(server)
    double affinity_term = 0.0;  // config.affinity_weight * affinity_bonus(server)
  };

  // Stages already committed to each rack / power domain for the pipeline currently
  // being placed (only materialized when config.domain_spread_weight > 0). Both
  // placement paths evaluate Penalty() through this one expression so the fp result
  // is bit-identical between them.
  struct SpreadState {
    std::vector<int> per_rack;
    std::vector<int> per_domain;
    double weight_per_stage = 0.0;  // config.domain_spread_weight / num_stages
    double Penalty(RackId rack, PowerDomainId domain) const {
      return weight_per_stage *
             (static_cast<double>(per_domain[static_cast<size_t>(domain)]) +
              static_cast<double>(per_rack[static_cast<size_t>(rack)]));
    }
  };

  double ScoreGpu(const Gpu& gpu, Bytes need, int model_id, double cv, GpuId prev_gpu,
                  const ServerScoreFn& hrg_penalty, const ServerScoreFn& affinity_bonus,
                  const SpreadState* spread) const;

  bool ServerExcluded(ServerId id) const {
    return excluded_servers_ != nullptr &&
           (*excluded_servers_)[static_cast<size_t>(id)] != 0;
  }

  Cluster* cluster_;
  const NetworkModel* network_;
  const ModelPlacementRegistry* registry_;
  PlacementConfig config_;
  const std::vector<uint8_t>* excluded_servers_ = nullptr;

  mutable std::vector<ServerScratch> scratch_;
  mutable uint64_t scratch_epoch_ = 0;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_CORE_ALLOCATION_H_
