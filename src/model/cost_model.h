// Analytic performance model of LLM inference on the simulated GPUs.
//
// All constants are calibrated against the paper's own published measurements — this is
// where "we don't have 82 A100s" is absorbed. Anchors (OPT-66B, seq 4096, Table 2):
//   * per-stage compute t_c(S) = 275.5/S + 1.06 ms  (fits all four rows within ~3%)
//   * per-hop communication ~= 2.1 ms at profiling conditions
//   * parameter load time: the four (per-stage-bytes, seconds) pairs, log-log
//     interpolated — load time is not a clean bandwidth law in the paper's data, so the
//     measured curve itself is the model
//   * max in-flight batch = 32 * S  (exact in Table 2: 128/256/512/1024)
// Other models scale by parameter count; decode iterations are weight-streaming bound
// with a mild batch slope.
#ifndef FLEXPIPE_SRC_MODEL_COST_MODEL_H_
#define FLEXPIPE_SRC_MODEL_COST_MODEL_H_

#include <vector>

#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/model/model_spec.h"

namespace flexpipe {

enum class Phase : int {
  kPrefill = 0,
  kDecode = 1,
};

struct CostModelConfig {
  // Full-model prefill of one 4096-token request (OPT-66B anchor).
  double ref_prefill_total_ms = 275.5;
  int ref_prefill_tokens = 4096;
  // Fixed per-stage per-iteration overhead (kernel launch, scheduler, router).
  double per_stage_overhead_ms = 1.06;
  // Full-model decode iteration, batch 1 (OPT-66B anchor).
  double ref_decode_total_ms = 40.0;
  // Marginal slowdown per extra request in a decode batch (memory-bound batching is
  // cheap: batch 32 costs ~1.6x batch 1).
  double decode_batch_slope = 0.02;
  // Per-stage in-flight request capacity (Table 2: max batch = 32 * stages).
  int per_stage_buffer_capacity = 32;
  // Fraction of GPU memory usable for KV cache after weights.
  double kv_memory_fraction = 0.85;
};

class FLEXPIPE_THREAD_COMPATIBLE CostModel {
 public:
  CostModel() : CostModel(CostModelConfig{}) {}
  explicit CostModel(const CostModelConfig& config);

  const CostModelConfig& config() const { return config_; }

  // Whole-model compute time for one iteration of `phase`.
  // Prefill: processes `tokens_per_req` prompt tokens for each of `batch` requests.
  // Decode: one token per request; `tokens_per_req` is ignored.
  TimeNs FullModelComputeTime(const ModelSpec& spec, Phase phase, int tokens_per_req,
                              int batch) const;

  // Inter-stage payload of a decode iteration (residual vector per request, compressed).
  Bytes DecodeActivationBytes(const ModelSpec& spec, int batch) const;

  // Cold start: fetching `stage_param_bytes` from remote storage into GPU memory.
  // Interpolated from the Table 2 anchors.
  TimeNs ColdLoadTime(Bytes stage_param_bytes) const;

  // Warm start: stage parameters already in host memory, PCIe copy only.
  TimeNs WarmLoadTime(Bytes stage_param_bytes, BytesPerSec pcie_bandwidth) const;

  // Request-capacity limit of one stage (scheduling buffers).
  int MaxRequestsPerStage() const { return config_.per_stage_buffer_capacity; }

  // KV bytes one token occupies on a stage owning `stage_fraction` of the model.
  Bytes KvBytesPerToken(const ModelSpec& spec, double stage_fraction) const;

 private:
  CostModelConfig config_;
  // (log per-stage bytes, log seconds) anchor curve for cold loads.
  std::vector<std::pair<double, double>> load_anchors_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_MODEL_COST_MODEL_H_
