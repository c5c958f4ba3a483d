#include "src/cluster/allocator.h"

#include <algorithm>
#include <cmath>

#include "src/common/macros.h"

namespace flexpipe {

ClusterAllocator::ClusterAllocator(Cluster* cluster, const AllocatorConfig& config, uint64_t seed)
    : cluster_(cluster), config_(config), rng_(seed) {
  FLEXPIPE_CHECK(cluster != nullptr);
}

std::vector<GpuId> ClusterAllocator::SelectGpus(const AllocationRequest& request) {
  std::vector<GpuId> eligible = cluster_->GpusWithFreeMemory(request.bytes_per_gpu);
  if (static_cast<int>(eligible.size()) < request.gpu_count) {
    return {};
  }

  switch (request.policy) {
    case PlacementPolicy::kBestFit:
      // GpusWithFreeMemory sorts by descending free memory.
      std::reverse(eligible.begin(), eligible.end());
      break;
    case PlacementPolicy::kScatter:
      std::shuffle(eligible.begin(), eligible.end(), rng_.engine());
      break;
  }

  std::vector<GpuId> chosen;
  // At most `gpu_count` servers end up used: a linear scan over this flat vector beats
  // hashing and keeps the selection loop free of unordered containers.
  std::vector<ServerId> used_servers;
  for (GpuId id : eligible) {
    if (request.distinct_servers) {
      ServerId sid = cluster_->ServerOf(id);
      if (std::find(used_servers.begin(), used_servers.end(), sid) != used_servers.end()) {
        continue;
      }
      used_servers.push_back(sid);
    }
    chosen.push_back(id);
    if (static_cast<int>(chosen.size()) == request.gpu_count) {
      return chosen;
    }
  }
  return {};
}

AllocationResult ClusterAllocator::Allocate(const AllocationRequest& request) {
  FLEXPIPE_CHECK(request.gpu_count >= 1);
  FLEXPIPE_CHECK(request.bytes_per_gpu > 0);
  ++total_requests_;

  AllocationResult result;
  std::vector<GpuId> chosen = SelectGpus(request);
  if (chosen.empty()) {
    ++failed_requests_;
    return result;
  }
  for (GpuId id : chosen) {
    cluster_->gpu(id).Reserve(request.bytes_per_gpu, request.sm_per_gpu);
  }
  result.success = true;
  result.gpus = std::move(chosen);
  double delay_s = rng_.LogNormal(std::log(config_.provision_median_s), config_.provision_sigma) +
                   config_.per_gpu_extra_s * static_cast<double>(request.gpu_count - 1);
  result.provisioning_delay = FromSeconds(delay_s);
  return result;
}

}  // namespace flexpipe
