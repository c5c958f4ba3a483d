#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/metrics/collector.h"
#include "src/runtime/request.h"

namespace flexpipe {
namespace {

Request CompletedRequest(RequestId id, TimeNs arrival, TimeNs done, int model_index = 0,
                         TimeNs slo = 0) {
  Request r;
  r.spec.id = id;
  r.spec.arrival = arrival;
  r.spec.model_index = model_index;
  r.spec.slo = slo;
  r.spec.prompt_tokens = 64;
  r.spec.output_tokens = 8;
  r.phase = RequestPhase::kDone;
  r.tokens_generated = 8;
  r.first_exec_start = arrival;
  r.first_token_time = arrival + (done - arrival) / 2;
  r.done_time = done;
  r.exec_ns = (done - arrival) / 3;
  r.comm_ns = (done - arrival) / 7;
  return r;
}

// The O(log n) prefix-sum window mean must agree with a naive scan over the series.
TEST(MetricsCollector, WindowMeanMatchesNaiveScan) {
  Rng rng(101);
  MetricsCollector collector;
  TimeNs t = 0;
  for (RequestId id = 1; id <= 4000; ++id) {
    t += FromSeconds(rng.ExponentialMean(0.05));
    TimeNs latency = FromSeconds(rng.Uniform(0.01, 4.0));
    collector.OnComplete(CompletedRequest(id, t - latency, t));
  }
  const auto& series = collector.completions();
  ASSERT_EQ(series.size(), 4000u);

  auto naive = [&](TimeNs begin, TimeNs end) {
    double sum = 0.0;
    int64_t n = 0;
    for (const CompletionSample& s : series) {
      if (s.done_time >= begin && s.done_time < end) {
        sum += ToSeconds(s.latency);
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };

  for (int i = 0; i < 200; ++i) {
    TimeNs begin = FromSeconds(rng.Uniform(0.0, ToSeconds(t)));
    TimeNs end = begin + FromSeconds(rng.Uniform(0.0, 30.0));
    EXPECT_NEAR(collector.MeanLatencyInWindowSec(begin, end), naive(begin, end), 1e-9)
        << "window [" << begin << ", " << end << ")";
  }
  // Boundary windows: empty, everything, exact sample edges.
  EXPECT_EQ(collector.MeanLatencyInWindowSec(0, 0), 0.0);
  EXPECT_NEAR(collector.MeanLatencyInWindowSec(0, t + 1), naive(0, t + 1), 1e-9);
  TimeNs edge = series[100].done_time;
  EXPECT_NEAR(collector.MeanLatencyInWindowSec(edge, edge + 1), naive(edge, edge + 1), 1e-9);
}

TEST(MetricsCollector, FlatPerModelTableMatchesCompletionsByModel) {
  MetricsCollector collector(/*default_slo=*/5 * kSecond);
  collector.ReserveModels(4);
  EXPECT_EQ(collector.ForModel(2), nullptr);  // reserved but nothing completed

  Rng rng(7);
  int64_t per_model_count[4] = {0, 0, 0, 0};
  TimeNs t = 0;
  for (RequestId id = 1; id <= 500; ++id) {
    t += FromSeconds(rng.ExponentialMean(0.1));
    int model = static_cast<int>(rng.UniformInt(0, 3));
    if (model == 2) {
      continue;  // model 2 never completes anything
    }
    collector.OnComplete(
        CompletedRequest(id, t - kSecond, t, model, /*slo=*/2 * kSecond));
    ++per_model_count[model];
  }

  for (int model : {0, 1, 3}) {
    EXPECT_NE(collector.ForModel(model), nullptr) << "model " << model;
  }
  EXPECT_EQ(collector.ForModel(2), nullptr);
  EXPECT_EQ(collector.ForModel(-1), nullptr);
  EXPECT_EQ(collector.ForModel(99), nullptr);
  int64_t total = 0;
  for (int model : {0, 1, 3}) {
    const MetricsCollector* sub = collector.ForModel(model);
    ASSERT_NE(sub, nullptr) << "model " << model;
    EXPECT_EQ(sub->completed(), per_model_count[model]);
    EXPECT_GT(sub->MeanLatencySec(), 0.0);
    total += sub->completed();
  }
  EXPECT_EQ(total, collector.completed());
}

TEST(MetricsCollector, DisabledSeriesKeepsHeadlineMetricsBounded) {
  MetricsCollector with_series(/*default_slo=*/3 * kSecond);
  MetricsCollector without_series(/*default_slo=*/3 * kSecond);
  without_series.SetKeepCompletionSeries(false);

  Rng rng(21);
  TimeNs t = 0;
  for (RequestId id = 1; id <= 300; ++id) {
    t += FromSeconds(rng.ExponentialMean(0.2));
    TimeNs latency = FromSeconds(rng.Uniform(0.5, 6.0));
    Request r = CompletedRequest(id, t - latency, t, static_cast<int>(id % 2));
    with_series.OnComplete(r);
    without_series.OnComplete(r);
  }

  EXPECT_EQ(with_series.completions().size(), 300u);
  EXPECT_TRUE(without_series.completions().empty());
  // Everything except the raw series must be identical.
  EXPECT_EQ(without_series.completed(), with_series.completed());
  EXPECT_EQ(without_series.completed_within_slo(), with_series.completed_within_slo());
  EXPECT_EQ(without_series.MeanLatencySec(), with_series.MeanLatencySec());
  EXPECT_EQ(without_series.LatencyPercentileSec(99), with_series.LatencyPercentileSec(99));
  EXPECT_EQ(without_series.MeanBreakdown().total_s, with_series.MeanBreakdown().total_s);
  const MetricsCollector* sub = without_series.ForModel(1);
  ASSERT_NE(sub, nullptr);
  EXPECT_TRUE(sub->completions().empty());  // children inherit the series mode
  EXPECT_EQ(sub->completed(), with_series.ForModel(1)->completed());
}

}  // namespace
}  // namespace flexpipe
