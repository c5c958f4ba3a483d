// Operator-level computation graph (§5).
//
// FlexPipe partitions models at operator granularity, not layer granularity. The
// inference graph of a transformer stack is a chain of operators; each operator is
// annotated with the transformer block it belongs to, because the partitioner's
// regulariser R(S_k) rewards cuts on block boundaries (they preserve the parameter
// grouping needed for cheap merging later).
#ifndef FLEXPIPE_SRC_MODEL_GRAPH_H_
#define FLEXPIPE_SRC_MODEL_GRAPH_H_

#include <string>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/model/model_spec.h"

namespace flexpipe {

enum class OpKind : int {
  kEmbedding = 0,
  kAttention = 1,
  kMlp = 2,
  kLayerNorm = 3,
  kLmHead = 4,
};

struct Operator {
  int index = 0;       // position in the chain
  OpKind kind = OpKind::kAttention;
  int block = -1;      // transformer block id; -1 for embedding/head
  Bytes param_bytes = 0;
  // Relative compute weight; the cost model turns this into time. Attention and MLP
  // dominate; norms are cheap.
  double compute_weight = 0.0;
  // True if a pipeline cut *after* this operator lands on a block boundary.
  bool block_boundary_after = false;
};

class FLEXPIPE_THREAD_COMPATIBLE ComputationGraph {
 public:
  static ComputationGraph Build(const ModelSpec& spec);

  const ModelSpec& spec() const { return spec_; }
  const std::vector<Operator>& ops() const { return ops_; }
  int op_count() const { return static_cast<int>(ops_.size()); }

  // Totals over a half-open operator range [begin, end).
  double RangeComputeWeight(int begin, int end) const;
  double TotalComputeWeight() const { return RangeComputeWeight(0, op_count()); }

  // Activation bytes crossing the cut between op `i` and `i+1` at the profiling batch
  // size and full context. Cutting mid-block is wider than cutting between blocks
  // (residual stream + attention intermediates).
  Bytes CutActivationBytes(int cut_after) const;

 private:
  ComputationGraph(ModelSpec spec, std::vector<Operator> ops);

  ModelSpec spec_;
  std::vector<Operator> ops_;
  std::vector<double> compute_prefix_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_MODEL_GRAPH_H_
