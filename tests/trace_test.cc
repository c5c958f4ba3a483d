#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/trace/arrival.h"
#include "src/trace/azure_trace.h"
#include "src/trace/cv_analysis.h"
#include "src/trace/streaming.h"
#include "src/trace/workload.h"

namespace flexpipe {
namespace {

// Inter-arrival gap statistics in seconds: cv() is the burstiness, 1 / mean() the rate.
RunningStats MeasuredGaps(ArrivalProcess& process, Rng& rng, int n) {
  RunningStats s;
  for (int i = 0; i < n; ++i) {
    s.Add(ToSeconds(process.NextGap(rng)));
  }
  return s;
}

TEST(Arrivals, PoissonHasUnitCvAndTargetRate) {
  PoissonArrivals p(20.0);
  Rng rng(1);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.Add(ToSeconds(p.NextGap(rng)));
  }
  EXPECT_NEAR(s.cv(), 1.0, 0.05);
  EXPECT_NEAR(1.0 / s.mean(), 20.0, 1.0);
}

class GammaCvTest : public ::testing::TestWithParam<double> {};

TEST_P(GammaCvTest, HitsTargetCv) {
  double cv = GetParam();
  GammaArrivals g(20.0, cv);
  Rng rng(2);
  RunningStats gaps = MeasuredGaps(g, rng, 60000);
  EXPECT_NEAR(gaps.cv(), cv, cv * 0.1) << "target cv " << cv;
  EXPECT_NEAR(1.0 / gaps.mean(), 20.0, 2.0) << "target cv " << cv;
}

INSTANTIATE_TEST_SUITE_P(CvSweep, GammaCvTest, ::testing::Values(0.1, 0.5, 1.0, 2.0, 4.0, 8.0));

TEST(Arrivals, MmppIsBurstier) {
  MmppArrivals::Config config;
  MmppArrivals m(config);
  Rng rng(3);
  RunningStats gaps = MeasuredGaps(m, rng, 60000);
  EXPECT_GT(gaps.cv(), 1.3);  // correlated bursts exceed Poisson variability
  EXPECT_GT(1.0 / gaps.mean(), config.low_rate);
  EXPECT_LT(1.0 / gaps.mean(), config.high_rate);
}

TEST(Arrivals, TraceReplayReproducesTimestamps) {
  std::vector<TimeNs> ts{10, 20, 50, 50, 90};
  TraceReplayArrivals replay(ts);
  Rng rng(4);
  TimeNs t = 0;
  std::vector<TimeNs> got;
  for (size_t i = 0; i < ts.size(); ++i) {
    t += replay.NextGap(rng);
    got.push_back(t);
  }
  // Equal timestamps are separated by the 1ns clamp.
  EXPECT_EQ(got[0], 10);
  EXPECT_EQ(got[1], 20);
  EXPECT_EQ(got[2], 50);
  EXPECT_EQ(got[3], 51);
  EXPECT_TRUE(replay.exhausted());
}

TEST(Arrivals, TraceReplayReportsExhaustionInsteadOfAborting) {
  TraceReplayArrivals replay({5, 15});
  Rng rng(4);
  TimeNs gap = 0;
  EXPECT_TRUE(replay.TryNextGap(rng, &gap));
  EXPECT_EQ(gap, 5);
  EXPECT_TRUE(replay.TryNextGap(rng, &gap));
  EXPECT_EQ(gap, 10);
  // Past the last timestamp: TryNextGap reports end-of-trace and leaves `gap` alone.
  EXPECT_FALSE(replay.TryNextGap(rng, &gap));
  EXPECT_EQ(gap, 10);
  EXPECT_TRUE(replay.exhausted());
  EXPECT_FALSE(replay.TryNextGap(rng, &gap));  // stays exhausted
}

TEST(Arrivals, GeneratorsStopEarlyOnFiniteProcess) {
  // The trace ends long before `end`/`n`; both generators must return what the
  // trace held rather than CHECK-failing on the draw past the end.
  Rng rng(4);
  TraceReplayArrivals until({10, 20, 30});
  EXPECT_EQ(until.GenerateUntil(rng, /*end=*/1 * kSecond),
            (std::vector<TimeNs>{10, 20, 30}));
  TraceReplayArrivals counted({10, 20, 30});
  EXPECT_EQ(counted.GenerateArrivals(rng, /*n=*/100),
            (std::vector<TimeNs>{10, 20, 30}));
}

TEST(StreamingWorkload, TraceBackedStreamDrainsGracefully) {
  // A replay-backed stream whose trace exhausts before `end` must terminate the
  // stream (and stay terminated) instead of aborting the run.
  const TimeNs kEnd = 10 * kSecond;
  auto replay = std::make_unique<TraceReplayArrivals>(
      std::vector<TimeNs>{1 * kSecond, 2 * kSecond, 3 * kSecond});
  StreamingWorkloadSource stream(WorkloadGenerator::Config{}, std::move(replay),
                                 /*arrival_rng=*/Rng(11),
                                 /*length_rng=*/Rng(11).Child("lengths"), kEnd);
  std::vector<TimeNs> arrivals;
  RequestSpec spec;
  while (stream.Next(&spec)) {
    arrivals.push_back(spec.arrival);
  }
  EXPECT_EQ(arrivals, (std::vector<TimeNs>{1 * kSecond, 2 * kSecond, 3 * kSecond}));
  EXPECT_FALSE(stream.Next(&spec));
}

TEST(Arrivals, FactorySelectsProcess) {
  auto poisson = MakeArrivalsWithCv(10.0, 1.0);
  auto gamma = MakeArrivalsWithCv(10.0, 4.0);
  EXPECT_NE(dynamic_cast<PoissonArrivals*>(poisson.get()), nullptr);
  EXPECT_NE(dynamic_cast<GammaArrivals*>(gamma.get()), nullptr);
}

TEST(Workload, GeneratesOrderedSpecsWithLengths) {
  WorkloadGenerator gen;
  Rng rng(5);
  auto specs = gen.GenerateWithCv(rng, 10.0, 2.0, 30 * kSecond);
  ASSERT_GT(specs.size(), 100u);
  TimeNs prev = 0;
  for (const auto& s : specs) {
    EXPECT_GE(s.arrival, prev);
    prev = s.arrival;
    EXPECT_GE(s.prompt_tokens, 1);
    EXPECT_LE(s.prompt_tokens, 4096);
    EXPECT_GE(s.output_tokens, 1);
    EXPECT_LE(s.output_tokens, 1024);
  }
  EXPECT_EQ(specs.front().id, 1u);
}

TEST(Workload, MergePreservesOrderAndRenumbers) {
  WorkloadGenerator gen;
  Rng rng(6);
  auto a = gen.GenerateWithCv(rng, 5.0, 1.0, 10 * kSecond);
  auto b = gen.GenerateWithCv(rng, 5.0, 1.0, 10 * kSecond);
  for (auto& s : b) {
    s.model_index = 1;
  }
  auto merged = MergeWorkloads({a, b});
  EXPECT_EQ(merged.size(), a.size() + b.size());
  TimeNs prev = 0;
  RequestId id = 1;
  for (const auto& s : merged) {
    EXPECT_GE(s.arrival, prev);
    prev = s.arrival;
    EXPECT_EQ(s.id, id++);
  }
}

TEST(LengthSampler, RespectsClamps) {
  LengthSampler::Config config;
  config.prompt_max = 512;
  config.output_max = 64;
  LengthSampler sampler(config);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LE(sampler.SamplePromptTokens(rng), 512);
    EXPECT_LE(sampler.SampleOutputTokens(rng), 64);
    EXPECT_GE(sampler.SamplePromptTokens(rng), 1);
  }
}

TEST(CvAnalysis, BinCountsPartitionArrivals) {
  std::vector<TimeNs> arrivals{1 * kSecond, 2 * kSecond, 11 * kSecond, 25 * kSecond};
  auto counts = BinCounts(arrivals, 10 * kSecond, 0, 30 * kSecond);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
}

TEST(CvAnalysis, UniformTrafficHasLowCv) {
  std::vector<TimeNs> arrivals;
  for (int i = 0; i < 3600; ++i) {
    arrivals.push_back(static_cast<TimeNs>(i) * kSecond);
  }
  double cv = WindowedCountCv(arrivals, 60 * kSecond, 0, 3600 * kSecond);
  EXPECT_LT(cv, 0.05);
}

TEST(AzureTrace, ShortWindowCvExceedsLongWindowCv) {
  AzureTraceSynthesizer::Config config;
  config.days = 3;
  config.base_rate = 10.0;
  AzureTraceSynthesizer synth(config);
  auto arrivals = synth.GenerateArrivals();
  ASSERT_GT(arrivals.size(), 100000u);

  auto reports = AnalyzeDailyCv(arrivals, config.days);
  ASSERT_EQ(reports.size(), 3u);
  double ratio_sum = 0;
  for (const auto& r : reports) {
    EXPECT_GT(r.cv_180s, 0.0);
    EXPECT_GT(r.cv_180s, r.cv_12h) << "short windows must look burstier";
    ratio_sum += r.cv_180s / std::max(r.cv_12h, 1e-6);
  }
  // Fig. 1's headline: multi-x disagreement between window sizes.
  EXPECT_GT(ratio_sum / 3.0, 2.0);
}

TEST(AzureTrace, RateProfileCoversSpanAndStaysPositive) {
  AzureTraceSynthesizer::Config config;
  config.days = 1;
  AzureTraceSynthesizer synth(config);
  auto profile = synth.RateProfile();
  EXPECT_EQ(profile.size(), 86400u);
  for (double r : profile) {
    EXPECT_GE(r, 0.0);
  }
}

// ---------- Streaming sources ----------

// Core contract of the streaming tentpole: lazily drawn arrivals are bit-identical to
// the materialized GenerateUntil sequence for the same seed — one gap draw per
// arrival, same order, same final discarded draw — across every arrival process.
TEST(StreamingWorkload, ArrivalsBitIdenticalToMaterializedAcrossProcesses) {
  struct Case {
    const char* name;
    std::function<std::unique_ptr<ArrivalProcess>()> make;
  };
  MmppArrivals::Config mmpp;
  mmpp.low_rate = 4.0;
  mmpp.high_rate = 120.0;
  mmpp.mean_low_sojourn_s = 7;
  mmpp.mean_high_sojourn_s = 2;
  std::vector<Case> cases;
  cases.push_back({"poisson", [] { return std::make_unique<PoissonArrivals>(25.0); }});
  cases.push_back({"gamma", [] { return std::make_unique<GammaArrivals>(25.0, 6.0); }});
  cases.push_back(
      {"mmpp", [mmpp] { return std::make_unique<MmppArrivals>(mmpp); }});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (uint64_t seed : {3ull, 42ull, 977ull}) {
      constexpr TimeNs kEnd = 120 * kSecond;
      auto materialized_process = c.make();
      Rng materialized_rng(seed);
      std::vector<TimeNs> materialized =
          materialized_process->GenerateUntil(materialized_rng, kEnd);
      ASSERT_GT(materialized.size(), 100u);

      StreamingWorkloadSource stream(WorkloadGenerator::Config{}, c.make(),
                                     /*arrival_rng=*/Rng(seed),
                                     /*length_rng=*/Rng(seed).Child("lengths"), kEnd);
      std::vector<TimeNs> streamed;
      RequestSpec spec;
      while (stream.Next(&spec)) {
        streamed.push_back(spec.arrival);
        EXPECT_EQ(spec.id, streamed.size());
        EXPECT_GE(spec.prompt_tokens, 1);
        EXPECT_GE(spec.output_tokens, 1);
      }
      EXPECT_FALSE(stream.Next(&spec));  // stays exhausted
      ASSERT_EQ(streamed.size(), materialized.size()) << "seed " << seed;
      for (size_t i = 0; i < streamed.size(); ++i) {
        ASSERT_EQ(streamed[i], materialized[i]) << "seed " << seed << " index " << i;
      }
      EXPECT_EQ(stream.emitted(), streamed.size());
    }
  }
}

// The convenience factory must select the same process shapes as MakeArrivalsWithCv
// and reproduce GenerateWithCv's arrivals from the same base RNG.
TEST(StreamingWorkload, WithCvMatchesGenerateWithCvArrivals) {
  for (double cv : {1.0, 4.0}) {
    WorkloadGenerator::Config config;
    config.slo = 10 * kSecond;
    WorkloadGenerator gen(config);
    Rng rng(Rng(42).Child("workload").seed());
    auto specs = gen.GenerateWithCv(rng, 20.0, cv, 60 * kSecond);

    StreamingWorkloadSource stream = StreamingWorkloadSource::WithCv(
        config, 20.0, cv, 60 * kSecond, Rng(Rng(42).Child("workload").seed()));
    RequestSpec spec;
    size_t i = 0;
    while (stream.Next(&spec)) {
      ASSERT_LT(i, specs.size()) << "cv " << cv;
      EXPECT_EQ(spec.arrival, specs[i].arrival) << "cv " << cv << " index " << i;
      EXPECT_EQ(spec.id, specs[i].id);
      EXPECT_EQ(spec.slo, specs[i].slo);
      ++i;
    }
    EXPECT_EQ(i, specs.size());
  }
}

// Merged per-model streams must reproduce MergeWorkloads' order exactly: stable by
// arrival with ties broken toward the earlier part, ids renumbered densely.
TEST(StreamingWorkload, MergedStreamMatchesMergeWorkloads) {
  constexpr TimeNs kEnd = 45 * kSecond;
  std::vector<std::vector<RequestSpec>> parts;
  std::vector<std::unique_ptr<RequestStream>> streams;
  const uint64_t seeds[] = {11, 22, 33};
  const double rates[] = {8.0, 12.0, 5.0};
  for (int m = 0; m < 3; ++m) {
    WorkloadGenerator::Config config;
    config.model_index = m;
    WorkloadGenerator gen(config);
    Rng rng(seeds[m]);
    auto arrivals = MakeArrivalsWithCv(rates[m], 2.0);
    parts.push_back(gen.GenerateUntil(*arrivals, rng, kEnd));
    streams.push_back(std::make_unique<StreamingWorkloadSource>(
        config, MakeArrivalsWithCv(rates[m], 2.0), Rng(seeds[m]),
        Rng(seeds[m]).Child("lengths"), kEnd));
  }
  auto merged = MergeWorkloads(std::move(parts));
  MergedRequestStream stream(std::move(streams));
  EXPECT_EQ(stream.end_time(), kEnd);

  RequestSpec spec;
  size_t i = 0;
  while (stream.Next(&spec)) {
    ASSERT_LT(i, merged.size());
    EXPECT_EQ(spec.arrival, merged[i].arrival) << "index " << i;
    EXPECT_EQ(spec.model_index, merged[i].model_index) << "index " << i;
    EXPECT_EQ(spec.id, merged[i].id) << "index " << i;
    ++i;
  }
  EXPECT_EQ(i, merged.size());
}

// A replayed trace comes out exactly as given, and its last arrival bounds the run.
TEST(StreamingWorkload, VectorStreamEmitsSpecsInOrder) {
  WorkloadGenerator gen;
  Rng rng(5);
  std::vector<RequestSpec> specs = gen.GenerateWithCv(rng, 10.0, 3.0, 20 * kSecond);
  ASSERT_GT(specs.size(), 10u);
  VectorRequestStream stream(specs);
  EXPECT_EQ(stream.end_time(), specs.back().arrival);

  RequestSpec spec;
  size_t i = 0;
  while (stream.Next(&spec)) {
    ASSERT_LT(i, specs.size());
    EXPECT_EQ(spec.id, specs[i].id) << "index " << i;
    EXPECT_EQ(spec.arrival, specs[i].arrival) << "index " << i;
    EXPECT_EQ(spec.model_index, specs[i].model_index) << "index " << i;
    EXPECT_EQ(spec.prompt_tokens, specs[i].prompt_tokens) << "index " << i;
    EXPECT_EQ(spec.output_tokens, specs[i].output_tokens) << "index " << i;
    ++i;
  }
  EXPECT_EQ(i, specs.size());
  EXPECT_FALSE(stream.Next(&spec));  // stays exhausted
}

TEST(StreamingWorkload, EmptyVectorStreamEmitsNothing) {
  const std::vector<RequestSpec> specs;
  VectorRequestStream stream(specs);
  EXPECT_EQ(stream.end_time(), 0);
  RequestSpec spec;
  EXPECT_FALSE(stream.Next(&spec));
}

// The runner's single self-rescheduling arrival event cannot schedule into the past.
TEST(StreamingWorkload, VectorStreamRejectsDecreasingArrivals) {
  std::vector<RequestSpec> specs(2);
  specs[0].arrival = 2 * kSecond;
  specs[1].arrival = 1 * kSecond;
  VectorRequestStream stream(specs);
  RequestSpec spec;
  ASSERT_TRUE(stream.Next(&spec));
  EXPECT_DEATH(stream.Next(&spec), "trace arrivals must not decrease");
}

}  // namespace
}  // namespace flexpipe
