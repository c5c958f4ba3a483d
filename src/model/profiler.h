// Offline operator profiler (the "Profiling" box in Fig. 5).
//
// §5: "The Profiling module measures three critical metrics for each operator:
// computation time t_c(v), parameter size s_p(v), and activation size s_a(v)."
// The partitioner consumes these measured profiles — not the cost model directly — so
// measurement noise can be injected and the partitioner's robustness to it tested.
#ifndef FLEXPIPE_SRC_MODEL_PROFILER_H_
#define FLEXPIPE_SRC_MODEL_PROFILER_H_

#include <vector>

#include "src/common/rng.h"
#include "src/model/cost_model.h"
#include "src/model/graph.h"

namespace flexpipe {

struct OperatorProfile {
  int op_index = 0;
  TimeNs compute_time = 0;      // t_c(v) at profiling conditions
  Bytes param_bytes = 0;        // s_p(v)
  Bytes activation_bytes = 0;   // s_a(v): output activation if cut after this op
};

struct ModelProfile {
  ModelSpec spec;
  std::vector<OperatorProfile> ops;
  int profiling_batch = 1;
  int profiling_tokens = 4096;
};

class Profiler {
 public:
  struct Config {
    int profiling_batch = 1;
    // Relative measurement noise (log-normal sigma); 0 disables.
    double noise_sigma = 0.0;
    uint64_t seed = 7;
  };

  Profiler(const CostModel* cost_model, const Config& config);

  ModelProfile Profile(const ComputationGraph& graph) const;

 private:
  const CostModel* cost_model_;
  Config config_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_MODEL_PROFILER_H_
