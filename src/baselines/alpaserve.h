// AlpaServe-like baseline (§9: "configures pipelines based on historical request
// patterns").
//
// Statically optimized: it picks one pipeline granularity offline (from long-window
// trace statistics), provisions a fixed replica fleet sized for peak demand, and never
// adapts at runtime — the representative of sophisticated-but-static pipeline systems.
// Multi-model deployments provision one such fixed fleet per model on the shared
// cluster, which is exactly AlpaServe's published setting (statistical multiplexing of
// several models' peaks).
#ifndef FLEXPIPE_SRC_BASELINES_ALPASERVE_H_
#define FLEXPIPE_SRC_BASELINES_ALPASERVE_H_

#include <memory>
#include <vector>

#include "src/core/granularity.h"
#include "src/core/serving.h"
#include "src/partition/plan.h"

namespace flexpipe {

struct AlpaServeConfig {
  int model_id = 0;
  int stages = 4;            // offline-chosen granularity
  int replicas = 0;          // 0 = derive from target_peak_rps
  double target_peak_rps = 20.0;
  double provision_headroom = 1.0;  // multiply the derived fleet
  double utilization_target = 0.55; // per-replica load target when deriving the fleet
  TimeNs default_slo = 15 * kSecond;
  WorkloadAssumptions workload;
};

class AlpaServeSystem : public ServingSystemBase {
 public:
  struct ModelDeployment {
    const GranularityLadder* ladder = nullptr;
    AlpaServeConfig config;
  };

  // Single-model convenience (the historical interface).
  AlpaServeSystem(const SystemContext& ctx, const GranularityLadder* ladder,
                  const AlpaServeConfig& config);
  // Multi-model: one peak-provisioned fleet per deployment on the shared cluster.
  AlpaServeSystem(const SystemContext& ctx, std::vector<ModelDeployment> deployments);

  void Start() override;

  // First (or only) model's fleet plan — kept for the single-model benches.
  int planned_replicas() const { return fleets_.front()->planned; }

 private:
  struct ModelFleet {
    const GranularityLadder* ladder = nullptr;
    AlpaServeConfig config;
    std::unique_ptr<GranularityController> analytics;
    int planned = 0;
    int launched = 0;
  };

  void TryLaunch(ModelFleet& fleet, int remaining_attempts);

  // Stable addresses: retry callbacks capture raw ModelFleet pointers.
  std::vector<std::unique_ptr<ModelFleet>> fleets_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_BASELINES_ALPASERVE_H_
