// Substrate-level GPU allocator with serverless provisioning semantics.
//
// This models what the Kubernetes/serverless layer gives every serving system: a way to
// request GPUs with enough free memory, after a provisioning delay (scheduling +
// container start, multi-second per §2.2). It is deliberately policy-light — first-fit /
// best-fit / scatter — because topology-aware placement is FlexPipe's contribution and
// lives in src/core/scaling. Baseline systems allocate through this interface.
#ifndef FLEXPIPE_SRC_CLUSTER_ALLOCATOR_H_
#define FLEXPIPE_SRC_CLUSTER_ALLOCATOR_H_

#include <vector>

#include "src/cluster/topology.h"
#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"

namespace flexpipe {

enum class PlacementPolicy : int {
  kBestFit = 1,    // least free memory that still fits (packs tightly)
  kScatter = 3,    // random eligible GPU (serverless anti-affinity behaviour, §2.2)
};

struct AllocationRequest {
  int gpu_count = 1;
  Bytes bytes_per_gpu = 0;
  double sm_per_gpu = 0.6;                // SM share the stage will consume
  bool distinct_servers = false;          // anti-colocate stages of one model (§6.2)
  PlacementPolicy policy = PlacementPolicy::kScatter;
};

struct AllocationResult {
  bool success = false;
  std::vector<GpuId> gpus;
  TimeNs provisioning_delay = 0;  // to be awaited by the caller before use
};

struct AllocatorConfig {
  // Provisioning delay: log-normal, median ~2.5 s (multi-second serverless scaling).
  double provision_median_s = 2.5;
  double provision_sigma = 0.45;
  // Extra delay per additional GPU in one request (sequential pod binding).
  double per_gpu_extra_s = 0.35;
};

class FLEXPIPE_THREAD_HOSTILE ClusterAllocator {
 public:
  ClusterAllocator(Cluster* cluster, const AllocatorConfig& config, uint64_t seed);

  // Reserves memory on the selected GPUs immediately (so concurrent requests cannot
  // double-book) and reports the provisioning delay the caller must wait out.
  AllocationResult Allocate(const AllocationRequest& request);

  // Statistics for the case-study bench.
  int64_t total_requests() const { return total_requests_; }
  int64_t failed_requests() const { return failed_requests_; }

 private:
  std::vector<GpuId> SelectGpus(const AllocationRequest& request);

  Cluster* cluster_;
  AllocatorConfig config_;
  Rng rng_;
  int64_t total_requests_ = 0;
  int64_t failed_requests_ = 0;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_CLUSTER_ALLOCATOR_H_
