#include "src/model/profiler.h"

#include <cmath>

#include "src/common/macros.h"

namespace flexpipe {

Profiler::Profiler(const CostModel* cost_model, const Config& config)
    : cost_model_(cost_model), config_(config) {
  FLEXPIPE_CHECK(cost_model != nullptr);
}

ModelProfile Profiler::Profile(const ComputationGraph& graph) const {
  ModelProfile profile;
  profile.spec = graph.spec();
  profile.profiling_batch = config_.profiling_batch;
  profile.profiling_tokens = graph.spec().context_window;
  Rng rng(config_.seed);

  TimeNs full = cost_model_->FullModelComputeTime(graph.spec(), Phase::kPrefill,
                                                  profile.profiling_tokens,
                                                  profile.profiling_batch);
  double total_weight = graph.TotalComputeWeight();

  profile.ops.reserve(static_cast<size_t>(graph.op_count()));
  for (const Operator& op : graph.ops()) {
    OperatorProfile p;
    p.op_index = op.index;
    double share = op.compute_weight / total_weight;
    double t = static_cast<double>(full) * share;
    double noise = 1.0;
    if (config_.noise_sigma > 0.0) {
      noise = rng.LogNormal(0.0, config_.noise_sigma);
    }
    p.compute_time = static_cast<TimeNs>(t * noise);
    p.param_bytes = op.param_bytes;
    p.activation_bytes =
        (op.index + 1 < graph.op_count()) ? graph.CutActivationBytes(op.index) : 0;
    profile.ops.push_back(p);
  }
  return profile;
}

}  // namespace flexpipe
