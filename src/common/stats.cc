#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/macros.h"

namespace flexpipe {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  double m = mean();
  if (m == 0.0) {
    return 0.0;
  }
  return stddev() / std::abs(m);
}

SlidingWindowStats::SlidingWindowStats(size_t capacity) : capacity_(capacity) {
  FLEXPIPE_CHECK(capacity > 0);
}

void SlidingWindowStats::Add(double x) {
  if (ring_.size() == capacity_) {
    // Warm path: evict the oldest sample in place (next_ walks the ring FIFO-wise).
    double old = ring_[next_];
    sum_ -= old;
    sum_sq_ -= old * old;
    ring_[next_] = x;
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
  } else {
    ring_.push_back(x);
  }
  sum_ += x;
  sum_sq_ += x * x;
}

double SlidingWindowStats::mean() const {
  if (ring_.empty()) {
    return 0.0;
  }
  return sum_ / static_cast<double>(size());
}

double SlidingWindowStats::variance() const {
  size_t n = size();
  if (n < 2) {
    return 0.0;
  }
  double m = mean();
  double var = (sum_sq_ - static_cast<double>(n) * m * m) / static_cast<double>(n - 1);
  // Floating-point cancellation can make this slightly negative for near-constant data.
  return std::max(var, 0.0);
}

double SlidingWindowStats::stddev() const { return std::sqrt(variance()); }

double SlidingWindowStats::cv() const {
  double m = mean();
  if (m == 0.0) {
    return 0.0;
  }
  return stddev() / std::abs(m);
}

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  FLEXPIPE_CHECK(q >= 0.0 && q <= 100.0);
  if (sorted.size() == 1) {
    return sorted[0];
  }
  double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, q);
}

}  // namespace flexpipe
