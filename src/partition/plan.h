// Pipeline plans: the output of the partitioner and the unit of refactoring.
//
// A PipelinePlan assigns contiguous operator ranges to stages. Plans at different
// granularities for the same model are *nested*: every coarse-stage boundary is also a
// fine-stage boundary (§5: "the partitioning algorithm preserves the parameter grouping
// structure to enable future replica alignment"). Nesting is what makes inflight
// refactoring cheap — merging stages never re-shuffles parameters, and splitting only
// loads the missing complement.
#ifndef FLEXPIPE_SRC_PARTITION_PLAN_H_
#define FLEXPIPE_SRC_PARTITION_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/model/model_spec.h"

namespace flexpipe {

struct StagePlan {
  int op_begin = 0;  // [op_begin, op_end) over the computation graph
  int op_end = 0;
  int fine_begin = 0;  // [fine_begin, fine_end) over the finest plan's stages
  int fine_end = 0;
  Bytes param_bytes = 0;
  TimeNs compute_time = 0;            // at profiling conditions
  Bytes output_activation_bytes = 0;  // payload to the next stage (0 for the last)
  bool clean_boundary = true;         // stage ends on a transformer-block boundary
};

struct PipelinePlan {
  ModelSpec spec;
  std::vector<StagePlan> stages;

  int num_stages() const { return static_cast<int>(stages.size()); }
  Bytes MaxStageParams() const;
  TimeNs BottleneckCompute() const;
  TimeNs TotalCompute() const;
  // Human-readable one-liner for logs and examples.
  std::string Describe() const;
};

// All granularities for one model, all cut from the same finest partition.
struct GranularityLadder {
  ModelSpec spec;
  std::vector<int> granularities;          // ascending stage counts, e.g. {2,4,8,16,32}
  std::map<int, PipelinePlan> plans;       // keyed by stage count

  const PipelinePlan& plan(int stages) const;
  int finest() const { return granularities.back(); }
  int coarsest() const { return granularities.front(); }

  // Verifies the nesting invariant; used by tests and CHECKed at construction.
  bool IsNested() const;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_PARTITION_PLAN_H_
