#include "src/model/cost_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/macros.h"

namespace flexpipe {

namespace {
// Table 2 cold-load anchors for OPT-66B (120 GB): per-stage bytes -> seconds.
// 4 stages: 30 GB -> 47.14 s; 8: 15 GB -> 13.05 s; 16: 7.5 GB -> 9.19 s;
// 32: 3.75 GB -> 5.43 s.
constexpr double kAnchorGiB[] = {3.75, 7.5, 15.0, 30.0};
constexpr double kAnchorSeconds[] = {5.43, 9.19, 13.05, 47.14};
constexpr int kAnchorCount = 4;
}  // namespace

CostModel::CostModel(const CostModelConfig& config) : config_(config) {
  load_anchors_.reserve(kAnchorCount);
  for (int i = 0; i < kAnchorCount; ++i) {
    load_anchors_.emplace_back(std::log(kAnchorGiB[i] * static_cast<double>(kGiB)),
                               std::log(kAnchorSeconds[i]));
  }
}

TimeNs CostModel::FullModelComputeTime(const ModelSpec& spec, Phase phase, int tokens_per_req,
                                       int batch) const {
  FLEXPIPE_DCHECK(batch >= 1);
  double size_scale =
      static_cast<double>(spec.param_bytes) / static_cast<double>(Opt66B().param_bytes);
  if (phase == Phase::kPrefill) {
    FLEXPIPE_DCHECK(tokens_per_req >= 1);
    // Compute-bound: linear in total prompt tokens processed this iteration.
    double token_scale = static_cast<double>(tokens_per_req) * batch /
                         static_cast<double>(config_.ref_prefill_tokens);
    double ms = config_.ref_prefill_total_ms * size_scale * token_scale;
    return FromMillis(ms);
  }
  // Decode: weight-streaming bound with a mild batch slope.
  double ms = config_.ref_decode_total_ms * size_scale *
              (1.0 + config_.decode_batch_slope * static_cast<double>(batch - 1));
  return FromMillis(ms);
}

Bytes CostModel::DecodeActivationBytes(const ModelSpec& spec, int batch) const {
  // One residual vector per in-flight request, fp16, wire-compressed like prefill.
  constexpr double kWireCompression = 0.35;
  return static_cast<Bytes>(static_cast<double>(spec.hidden_dim) * 2.0 * batch *
                            kWireCompression) +
         4096;  // framing/header
}

TimeNs CostModel::ColdLoadTime(Bytes stage_param_bytes) const {
  FLEXPIPE_CHECK(stage_param_bytes > 0);
  double lx = std::log(static_cast<double>(stage_param_bytes));
  // Log-log interpolation with end-slope extrapolation.
  const auto& a = load_anchors_;
  double ly;
  if (lx <= a.front().first) {
    double slope = (a[1].second - a[0].second) / (a[1].first - a[0].first);
    ly = a[0].second + slope * (lx - a[0].first);
  } else if (lx >= a.back().first) {
    size_t n = a.size();
    double slope = (a[n - 1].second - a[n - 2].second) / (a[n - 1].first - a[n - 2].first);
    ly = a[n - 1].second + slope * (lx - a[n - 1].first);
  } else {
    ly = a[0].second;
    for (size_t i = 1; i < a.size(); ++i) {
      if (lx <= a[i].first) {
        double t = (lx - a[i - 1].first) / (a[i].first - a[i - 1].first);
        ly = a[i - 1].second + t * (a[i].second - a[i - 1].second);
        break;
      }
    }
  }
  // Floor: container + runtime init is never below ~1.5 s for a cold start.
  return std::max(FromSeconds(std::exp(ly)), FromSeconds(1.5));
}

TimeNs CostModel::WarmLoadTime(Bytes stage_param_bytes, BytesPerSec pcie_bandwidth) const {
  // Host-memory hit: PCIe copy plus a short runtime re-attach.
  return TransferTime(stage_param_bytes, pcie_bandwidth) + FromMillis(250);
}

Bytes CostModel::KvBytesPerToken(const ModelSpec& spec, double stage_fraction) const {
  return static_cast<Bytes>(static_cast<double>(spec.kv_bytes_per_token) * stage_fraction);
}

}  // namespace flexpipe
