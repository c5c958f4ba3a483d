// Constrained pipeline partitioner (§5, Eq. 2).
//
// Solves
//   min_{S_k}  max_k [ t_c(S_k) + w_l * max(0, s_p(S_k)/B - C) + t_comm(S_k) + λ R(S_k) ]
//   s.t. stages tile the operator chain, s_p(S_k) <= M_GPU
// by dynamic programming over the operator chain. We balance the *maximum* stage cost
// (pipeline throughput is bottleneck-bound) while the paper writes the objective as a
// sum; for a chain with contiguous stages the two disagree only on how slack is spread
// among non-bottleneck stages, and min-max gives the balanced stages Eq. 8 requires.
//
// R(S_k) is the refactoring regulariser: a cut that lands inside a transformer block
// pays a penalty, so chosen boundaries stay on block edges whenever balance permits —
// those are exactly the boundaries future merges can reuse.
#ifndef FLEXPIPE_SRC_PARTITION_PARTITIONER_H_
#define FLEXPIPE_SRC_PARTITION_PARTITIONER_H_

#include <vector>

#include "src/common/thread_annotations.h"
#include "src/model/profiler.h"
#include "src/partition/plan.h"

namespace flexpipe {

struct PartitionerConfig {
  Bytes gpu_memory = GiB(40);                      // M_GPU
  BytesPerSec interstage_bandwidth = GbpsToBytesPerSec(100.0);  // B
  TimeNs overlap_target = FromMillis(30);          // C: tolerated load/compute overlap
  double load_weight = 0.02;                       // w_l on the (s_p/B - C)+ term
  double lambda_refactor = 0.25;                   // λ on R(S_k), relative to mean stage cost
  std::vector<int> ladder = {2, 4, 8, 16, 32};     // granularities to prebuild
};

class FLEXPIPE_THREAD_COMPATIBLE Partitioner {
 public:
  // One partitionable unit of the chain (an operator, or a finest-plan stage when
  // building coarser ladder rungs).
  struct Item {
    TimeNs compute = 0;
    Bytes params = 0;
    Bytes activation_out = 0;  // if a cut is placed after this item
    bool clean_boundary = true;
    int op_begin = 0;
    int op_end = 0;
  };

  Partitioner() : Partitioner(PartitionerConfig{}) {}
  explicit Partitioner(const PartitionerConfig& config);

  const PartitionerConfig& config() const { return config_; }

  // Direct operator-level partition into exactly `num_stages` stages.
  // CHECK-fails if no feasible partition exists under the memory cap.
  PipelinePlan Partition(const ModelProfile& profile, int num_stages) const;

  // Builds the full nested ladder: the finest granularity is partitioned at operator
  // level; every coarser plan merges contiguous finest stages (second DP), so boundaries
  // nest by construction.
  GranularityLadder BuildLadder(const ModelProfile& profile) const;

  // Shared min-max DP over a chain of items: tiles the chain into exactly `groups`
  // contiguous [begin, end) ranges minimizing the bottleneck group cost; empty result
  // when the memory cap admits no tiling. Public so tests can cross-check it against
  // the naive O(groups·n³) reference DP on synthetic and real chains.
  //
  // Exact cost bound: for a fixed end i, the group cost c(j, i) never decreases as the
  // split point j decreases. Compute and params only grow; the last item's transfer
  // time and the refactor penalty do not depend on j; and IEEE addition, max(0, ·) and
  // multiplication by a non-negative weight are all monotone. So the scan over j
  // (descending) stops at the first c(j, i) above the best candidate so far: no smaller
  // j can beat or tie it. Together with the memory-cap break, most split points are
  // never priced. Preconditions, CHECKed: every item has compute >= 0 and params >= 0,
  // interstage_bandwidth > 0 and load_weight >= 0.
  std::vector<std::pair<int, int>> SolveChain(const std::vector<Item>& items, int groups) const;

 private:
  PipelinePlan PlanFromGroups(const ModelProfile& profile, const std::vector<Item>& items,
                              const std::vector<std::pair<int, int>>& groups,
                              const std::vector<int>* item_fine_index) const;

  PartitionerConfig config_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_PARTITION_PARTITIONER_H_
