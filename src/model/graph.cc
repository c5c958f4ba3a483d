#include "src/model/graph.h"

#include "src/common/macros.h"

namespace flexpipe {

ComputationGraph ComputationGraph::Build(const ModelSpec& spec) {
  FLEXPIPE_CHECK(spec.num_layers > 0);
  std::vector<Operator> ops;
  ops.reserve(static_cast<size_t>(spec.num_layers) * 4 + 2);

  // Parameter split within a transformer block: attention holds ~1/3 of block params
  // (QKV + output projection = 4 h^2), MLP ~2/3 (two 4h x h matrices = 8 h^2).
  Bytes layer_params = spec.ParamBytesPerLayer();
  // Embedding and head each get half a layer-equivalent, taken off the top.
  Bytes embed_params = layer_params / 2;
  Bytes head_params = layer_params / 2;
  Bytes block_budget = (spec.param_bytes - embed_params - head_params) / spec.num_layers;
  Bytes attn_params = block_budget / 3;
  Bytes norm_params = block_budget / 200;  // tiny
  Bytes mlp_params = block_budget - attn_params - 2 * norm_params;

  int index = 0;
  {
    Operator op;
    op.index = index++;
    op.kind = OpKind::kEmbedding;
    op.param_bytes = embed_params;
    op.compute_weight = 0.2;
    op.block_boundary_after = true;
    ops.push_back(op);
  }
  for (int block = 0; block < spec.num_layers; ++block) {
    Operator norm1;
    norm1.index = index++;
    norm1.kind = OpKind::kLayerNorm;
    norm1.block = block;
    norm1.param_bytes = norm_params;
    norm1.compute_weight = 0.02;
    ops.push_back(norm1);

    Operator attn;
    attn.index = index++;
    attn.kind = OpKind::kAttention;
    attn.block = block;
    attn.param_bytes = attn_params;
    attn.compute_weight = 0.40;
    ops.push_back(attn);

    Operator norm2;
    norm2.index = index++;
    norm2.kind = OpKind::kLayerNorm;
    norm2.block = block;
    norm2.param_bytes = norm_params;
    norm2.compute_weight = 0.02;
    ops.push_back(norm2);

    Operator mlp;
    mlp.index = index++;
    mlp.kind = OpKind::kMlp;
    mlp.block = block;
    mlp.param_bytes = mlp_params;
    mlp.compute_weight = 0.56;
    mlp.block_boundary_after = true;  // cut after the MLP = cut between blocks
    ops.push_back(mlp);
  }
  {
    Operator op;
    op.index = index++;
    op.kind = OpKind::kLmHead;
    op.param_bytes = head_params;
    op.compute_weight = 0.25;
    op.block_boundary_after = true;
    ops.push_back(op);
  }
  return ComputationGraph(spec, std::move(ops));
}

ComputationGraph::ComputationGraph(ModelSpec spec, std::vector<Operator> ops)
    : spec_(std::move(spec)), ops_(std::move(ops)) {
  compute_prefix_.resize(ops_.size() + 1, 0.0);
  for (size_t i = 0; i < ops_.size(); ++i) {
    compute_prefix_[i + 1] = compute_prefix_[i] + ops_[i].compute_weight;
  }
}

double ComputationGraph::RangeComputeWeight(int begin, int end) const {
  FLEXPIPE_DCHECK(begin >= 0 && end <= op_count() && begin <= end);
  return compute_prefix_[static_cast<size_t>(end)] - compute_prefix_[static_cast<size_t>(begin)];
}

Bytes ComputationGraph::CutActivationBytes(int cut_after) const {
  FLEXPIPE_DCHECK(cut_after >= 0 && cut_after + 1 < op_count());
  // Residual stream at full context: tokens * hidden * 2 bytes (fp16), with an
  // empirical wire-compression factor (activations are transferred quantized).
  constexpr double kWireCompression = 0.35;
  double base = static_cast<double>(spec_.context_window) * spec_.hidden_dim * 2.0;
  if (!ops_[static_cast<size_t>(cut_after)].block_boundary_after) {
    // Mid-block cuts also carry attention intermediates alongside the residual stream.
    base *= 1.75;
  }
  return static_cast<Bytes>(base * kWireCompression);
}

}  // namespace flexpipe
