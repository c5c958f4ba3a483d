#include "src/metrics/collector.h"

#include <algorithm>

#include "src/common/macros.h"

namespace flexpipe {

MetricsCollector::MetricsCollector(TimeNs default_slo)
    : MetricsCollector(default_slo, /*track_per_model=*/true) {}

MetricsCollector::MetricsCollector(TimeNs default_slo, bool track_per_model)
    : default_slo_(default_slo), track_per_model_(track_per_model) {}

void MetricsCollector::ReserveModels(int model_count) {
  if (!track_per_model_ || model_count <= 0) {
    return;
  }
  if (per_model_.size() < static_cast<size_t>(model_count)) {
    per_model_.resize(static_cast<size_t>(model_count));
  }
}

void MetricsCollector::SetKeepCompletionSeries(bool keep) {
  FLEXPIPE_CHECK_MSG(completed_ == 0, "series mode must be set before completions");
  keep_completion_series_ = keep;
}

void MetricsCollector::OnComplete(const Request& request) {
  FLEXPIPE_CHECK(request.done());
  // Token progress survives refactors, migrations and fault recovery: a completion has
  // produced exactly its requested tokens, in causal order.
  FLEXPIPE_CHECK(request.tokens_generated == request.spec.output_tokens);
  FLEXPIPE_CHECK(request.first_token_time >= request.spec.arrival);
  FLEXPIPE_CHECK(request.done_time >= request.first_token_time);
  TimeNs latency = request.TotalLatency();
  FLEXPIPE_CHECK(latency >= 0);
  ++completed_;
  if (request.MetSlo(default_slo_)) {
    ++within_slo_;
  }
  latency_.Add(ToSeconds(latency));
  if (request.PrefillLatency() >= 0) {
    prefill_.Add(ToSeconds(request.PrefillLatency()));
  }
  queue_s_.Add(ToSeconds(request.QueueTime()));
  exec_s_.Add(ToSeconds(request.exec_ns));
  comm_s_.Add(ToSeconds(request.comm_ns));
  if (keep_completion_series_) {
    FLEXPIPE_DCHECK(completions_.empty() ||
                    completions_.back().done_time <= request.done_time);
    if (latency_prefix_s_.empty()) {
      latency_prefix_s_.push_back(0.0);
    }
    latency_prefix_s_.push_back(latency_prefix_s_.back() + ToSeconds(latency));
    completions_.push_back(CompletionSample{request.done_time, latency});
  }
  if (track_per_model_) {
    int model_id = request.model_id();
    FLEXPIPE_CHECK(model_id >= 0);
    if (static_cast<size_t>(model_id) >= per_model_.size()) {
      per_model_.resize(static_cast<size_t>(model_id) + 1);
    }
    std::unique_ptr<MetricsCollector>& child = per_model_[static_cast<size_t>(model_id)];
    if (child == nullptr) {
      child.reset(new MetricsCollector(default_slo_, /*track_per_model=*/false));
      child->keep_completion_series_ = keep_completion_series_;
    }
    child->OnComplete(request);
  }
}

const MetricsCollector* MetricsCollector::ForModel(int model_id) const {
  if (model_id < 0 || static_cast<size_t>(model_id) >= per_model_.size()) {
    return nullptr;
  }
  return per_model_[static_cast<size_t>(model_id)].get();
}

double MetricsCollector::GoodputRate(int64_t submitted) const {
  if (submitted <= 0) {
    return 0.0;
  }
  return static_cast<double>(within_slo_) / static_cast<double>(submitted);
}

double MetricsCollector::GoodputPerSec(TimeNs horizon) const {
  if (horizon <= 0) {
    return 0.0;
  }
  return static_cast<double>(within_slo_) / ToSeconds(horizon);
}

LatencyBreakdown MetricsCollector::MeanBreakdown() const {
  LatencyBreakdown b;
  b.queue_s = queue_s_.mean();
  b.exec_s = exec_s_.mean();
  b.comm_s = comm_s_.mean();
  b.total_s = b.queue_s + b.exec_s + b.comm_s;
  return b;
}

double MetricsCollector::MeanLatencyInWindowSec(TimeNs begin, TimeNs end) const {
  auto by_time = [](const CompletionSample& s, TimeNs t) { return s.done_time < t; };
  auto lo = std::lower_bound(completions_.begin(), completions_.end(), begin, by_time);
  auto hi = std::lower_bound(lo, completions_.end(), end, by_time);
  if (lo == hi) {
    return 0.0;
  }
  size_t lo_i = static_cast<size_t>(lo - completions_.begin());
  size_t hi_i = static_cast<size_t>(hi - completions_.begin());
  return (latency_prefix_s_[hi_i] - latency_prefix_s_[lo_i]) /
         static_cast<double>(hi_i - lo_i);
}

}  // namespace flexpipe
