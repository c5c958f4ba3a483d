#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"

namespace flexpipe {
namespace {

TEST(Units, Conversions) {
  EXPECT_EQ(FromSeconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(ToMillis(FromMillis(12.5)), 12.5);
  EXPECT_EQ(GiB(2.0), 2LL * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(ToGiB(GiB(40)), 40.0);
}

TEST(Units, TransferTime) {
  // 1 GiB at 1 GiB/s = 1 s.
  EXPECT_EQ(TransferTime(kGiB, GiBps(1.0)), kSecond);
  EXPECT_EQ(TransferTime(0, GiBps(1.0)), 0);
  EXPECT_EQ(TransferTime(-5, GiBps(1.0)), 0);
  // Zero bandwidth caps out instead of dividing by zero.
  EXPECT_GT(TransferTime(kGiB, 0.0), kHour);
}

TEST(Units, GbpsConversion) {
  // 100 Gbps = 12.5 GB/s.
  EXPECT_DOUBLE_EQ(GbpsToBytesPerSec(100.0), 12.5e9);
}

TEST(RunningStats, MeanVarianceCv) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(s.cv(), std::sqrt(32.0 / 7.0) / 5.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(SlidingWindowStats, EvictsOldSamples) {
  SlidingWindowStats w(4);
  for (double x : {100.0, 1.0, 2.0, 3.0, 4.0}) {
    w.Add(x);  // 100 falls out
  }
  EXPECT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w.mean(), 2.5);
  EXPECT_NEAR(w.variance(), 5.0 / 3.0, 1e-9);
}

TEST(SlidingWindowStats, CvOfConstantIsZero) {
  SlidingWindowStats w(8);
  for (int i = 0; i < 8; ++i) {
    w.Add(3.25);
  }
  EXPECT_NEAR(w.cv(), 0.0, 1e-9);
}

// Naive deque-FIFO reference with the same incremental sum arithmetic: the flat-ring
// implementation must agree bit-for-bit across evictions.
TEST(SlidingWindowStats, RingMatchesNaiveReferenceRandomized) {
  Rng rng(314159);
  for (int round = 0; round < 30; ++round) {
    size_t capacity = static_cast<size_t>(rng.UniformInt(1, 40));
    SlidingWindowStats ring(capacity);
    std::deque<double> window;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < 1000; ++i) {
      double x = rng.LogNormal(0.0, 1.5);
      if (window.size() == capacity) {
        double old = window.front();
        window.pop_front();
        sum -= old;
        sum_sq -= old * old;
      }
      window.push_back(x);
      sum += x;
      sum_sq += x * x;

      ring.Add(x);
      ASSERT_EQ(ring.size(), window.size());
      EXPECT_EQ(ring.full(), window.size() == capacity);
      double n = static_cast<double>(window.size());
      double mean = sum / n;
      EXPECT_EQ(ring.mean(), mean) << "round " << round << " step " << i;
      if (window.size() >= 2) {
        double var = std::max((sum_sq - n * mean * mean) / (n - 1.0), 0.0);
        EXPECT_EQ(ring.variance(), var) << "round " << round << " step " << i;
      } else {
        EXPECT_EQ(ring.variance(), 0.0);
      }
    }
  }
}

TEST(Percentile, InterpolatesOrderStatistics) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.5);
  EXPECT_NEAR(Percentile(v, 90), 9.1, 1e-12);
}

TEST(Histogram, PercentilesWithinRelativeError) {
  Histogram h(1e-4, 1.03);
  Rng rng(5);
  std::vector<double> exact;
  for (int i = 0; i < 20000; ++i) {
    double x = rng.LogNormal(0.0, 1.0);
    h.Add(x);
    exact.push_back(x);
  }
  for (double q : {50.0, 90.0, 99.0}) {
    double e = Percentile(exact, q);
    double got = h.Percentile(q);
    EXPECT_NEAR(got, e, e * 0.05) << "q=" << q;
  }
  EXPECT_EQ(h.count(), 20000);
}

TEST(Histogram, MergeAddsMass) {
  Histogram a;
  Histogram b;
  a.Add(1.0);
  a.Add(2.0);
  b.Add(10.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
}

TEST(Rng, DeterministicStreams) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, ChildStreamsDiverge) {
  Rng root(42);
  Rng a = root.Child("alpha");
  Rng b = root.Child("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000) == b.UniformInt(0, 1000)) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, GammaMatchesTargetCv) {
  // Gamma(shape=1/cv^2) inter-arrivals should produce the requested CV.
  Rng rng(9);
  for (double cv : {0.5, 1.0, 2.0, 4.0}) {
    double shape = 1.0 / (cv * cv);
    RunningStats s;
    for (int i = 0; i < 40000; ++i) {
      s.Add(rng.Gamma(shape, 1.0 / shape));
    }
    EXPECT_NEAR(s.cv(), cv, cv * 0.1) << "cv=" << cv;
    EXPECT_NEAR(s.mean(), 1.0, 0.1);
  }
}

TEST(Rng, ParetoTailIsHeavy) {
  Rng rng(1);
  int above = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Pareto(1.0, 1.5) > 10.0) {
      ++above;
    }
  }
  // P(X > 10) = 10^-1.5 ~= 3.2%.
  EXPECT_NEAR(static_cast<double>(above) / 10000.0, 0.0316, 0.01);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"a", "1.00"});
  t.AddRow({"longer-name", "2.50"});
  std::string out = t.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Pct(0.253, 1), "25.3%");
}

}  // namespace
}  // namespace flexpipe
