#include "src/baselines/alpaserve.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/macros.h"

namespace flexpipe {

namespace {

std::vector<AlpaServeSystem::ModelDeployment> SingleDeployment(const GranularityLadder* ladder,
                                                               const AlpaServeConfig& config) {
  AlpaServeSystem::ModelDeployment deployment;
  deployment.ladder = ladder;
  deployment.config = config;
  return {deployment};
}


}  // namespace

AlpaServeSystem::AlpaServeSystem(const SystemContext& ctx, const GranularityLadder* ladder,
                                 const AlpaServeConfig& config)
    : AlpaServeSystem(ctx, SingleDeployment(ladder, config)) {}

AlpaServeSystem::AlpaServeSystem(const SystemContext& ctx,
                                 std::vector<ModelDeployment> deployments)
    : ServingSystemBase(ctx, "AlpaServe", FirstDeploymentSlo(deployments)) {
  for (const ModelDeployment& d : deployments) {
    FLEXPIPE_CHECK(d.ladder != nullptr);
    for (const auto& existing : fleets_) {
      FLEXPIPE_CHECK_MSG(existing->config.model_id != d.config.model_id,
                         "duplicate model_id across deployments");
    }
    auto fleet = std::make_unique<ModelFleet>();
    fleet->ladder = d.ladder;
    fleet->config = d.config;
    fleet->analytics = std::make_unique<GranularityController>(
        d.ladder, ctx.cost_model, ctx.network, d.config.workload, GranularityConfig{});
    fleets_.push_back(std::move(fleet));
    RegisterServedModel(d.config.model_id);
  }
}

void AlpaServeSystem::Start() {
  for (auto& fleet : fleets_) {
    if (fleet->config.replicas > 0) {
      fleet->planned = fleet->config.replicas;
    } else {
      const GranularityOption& opt = fleet->analytics->OptionFor(fleet->config.stages);
      fleet->planned = std::max(
          1, static_cast<int>(std::ceil(
                 fleet->config.target_peak_rps * fleet->config.provision_headroom /
                 std::max(opt.throughput_rps * fleet->config.utilization_target, 1e-6))));
    }
    TryLaunch(*fleet, /*remaining_attempts=*/20);
  }
}

void AlpaServeSystem::TryLaunch(ModelFleet& fleet, int remaining_attempts) {
  while (fleet.launched < fleet.planned) {
    PipelineInstance* inst =
        LaunchViaAllocator(fleet.ladder->plan(fleet.config.stages), fleet.config.model_id,
                           PlacementPolicy::kBestFit, /*distinct_servers=*/true);
    if (inst == nullptr) {
      break;
    }
    ++fleet.launched;
  }
  if (fleet.launched < fleet.planned && remaining_attempts > 0) {
    // Fragmentation blocked part of the fleet; retry as background churn frees memory.
    ModelFleet* fleet_ptr = &fleet;
    ctx_.sim->Schedule(2 * kSecond, [this, fleet_ptr, remaining_attempts] {
      TryLaunch(*fleet_ptr, remaining_attempts - 1);
    });
  } else if (fleet.launched < fleet.planned) {
    FLEXPIPE_LOG_WARN("AlpaServe: deployed %d/%d replicas (fragmented cluster, model %d)",
                      fleet.launched, fleet.planned, fleet.config.model_id);
  }
}

}  // namespace flexpipe
