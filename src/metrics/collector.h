// Experiment metrics collection.
//
// One collector per serving-system run. It ingests completed requests and produces the
// quantities the paper's figures report: goodput (completions within SLO), end-to-end
// latency percentiles, the queue/execution/communication breakdown (Fig. 8), prefill
// latency (Fig. 13), and a completion-time series for burst/recovery analysis
// (Fig. 9, Fig. 11).
//
// OnComplete sits on the per-request hot path of the cluster-scale benches, so the
// per-model fan-out is a flat vector indexed by model_id (pre-sized via ReserveModels
// when the serving system declares its deployments) rather than a map lookup per
// completion. Endurance runs that stream millions of requests disable the completion
// series (SetKeepCompletionSeries) so collector memory stays bounded by the histogram
// bucket count, not the trace length.
#ifndef FLEXPIPE_SRC_METRICS_COLLECTOR_H_
#define FLEXPIPE_SRC_METRICS_COLLECTOR_H_

#include <memory>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/stats.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/runtime/request.h"

namespace flexpipe {

struct CompletionSample {
  TimeNs done_time = 0;
  TimeNs latency = 0;
};

struct LatencyBreakdown {
  double queue_s = 0.0;
  double exec_s = 0.0;
  double comm_s = 0.0;
  double total_s = 0.0;
};

class FLEXPIPE_THREAD_HOSTILE MetricsCollector {
 public:
  // `default_slo` classifies goodput when a request carries no SLO of its own;
  // 0 = every completion counts.
  explicit MetricsCollector(TimeNs default_slo = 0);

  void OnComplete(const Request& request);

  // Pre-sizes the per-model table so OnComplete never grows it mid-run (mirrors the
  // placement registry, which is pre-sized from the cluster).
  void ReserveModels(int model_count);

  // Streaming endurance runs retain no per-completion series: histograms and running
  // stats keep every headline metric, while memory stays O(1) per completion. Must be
  // set before the first completion.
  void SetKeepCompletionSeries(bool keep);

  int64_t completed() const { return completed_; }
  int64_t completed_within_slo() const { return within_slo_; }
  double GoodputRate(int64_t submitted) const;
  // Completions within SLO per second over [0, horizon].
  double GoodputPerSec(TimeNs horizon) const;

  // Mean component breakdown over all completions (seconds).
  LatencyBreakdown MeanBreakdown() const;

  double LatencyPercentileSec(double q) const { return latency_.Percentile(q); }
  double MeanLatencySec() const { return latency_.mean(); }
  double PrefillPercentileSec(double q) const { return prefill_.Percentile(q); }
  double MeanPrefillSec() const { return prefill_.mean(); }

  const Histogram& latency_histogram() const { return latency_; }
  const Histogram& prefill_histogram() const { return prefill_; }

  // Completion series ordered by done_time (completions arrive in time order in a DES).
  // Empty when the series is disabled.
  const std::vector<CompletionSample>& completions() const { return completions_; }

  // Mean response time of completions inside [begin, end) — Fig. 9 timeline points.
  // O(log n): binary search on the done_time-sorted series plus a latency prefix sum.
  double MeanLatencyInWindowSec(TimeNs begin, TimeNs end) const;

  // -- Per-model views (multi-model serving) -------------------------------------------
  // Sub-collector for one model's completions; nullptr when the model completed nothing.
  const MetricsCollector* ForModel(int model_id) const;

 private:
  MetricsCollector(TimeNs default_slo, bool track_per_model);

  TimeNs default_slo_;
  bool track_per_model_ = true;
  bool keep_completion_series_ = true;
  int64_t completed_ = 0;
  int64_t within_slo_ = 0;
  Histogram latency_{1e-4, 1.03};
  Histogram prefill_{1e-4, 1.03};
  RunningStats queue_s_;
  RunningStats exec_s_;
  RunningStats comm_s_;
  std::vector<CompletionSample> completions_;
  // latency_prefix_s_[i] = sum of the first i completion latencies in seconds, so any
  // window mean is two binary searches plus one subtraction.
  std::vector<double> latency_prefix_s_;
  // Flat per-model table indexed by model_id; slots are null until the model's first
  // completion. Children never track per-model themselves (one level of nesting only).
  std::vector<std::unique_ptr<MetricsCollector>> per_model_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_METRICS_COLLECTOR_H_
