#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>

#include "src/common/macros.h"

namespace flexpipe {

Histogram::Histogram(double min_value, double growth)
    : min_value_(min_value), growth_(growth), inv_log_growth_(1.0 / std::log(growth)) {
  FLEXPIPE_CHECK(min_value > 0.0);
  FLEXPIPE_CHECK(growth > 1.0);
}

size_t Histogram::BucketFor(double value) const {
  if (value <= min_value_) {
    return 0;
  }
  double idx = std::log(value / min_value_) * inv_log_growth_;
  return static_cast<size_t>(idx) + 1;
}

double Histogram::BucketLowerBound(size_t index) const {
  if (index == 0) {
    return 0.0;
  }
  return min_value_ * std::pow(growth_, static_cast<double>(index - 1));
}

void Histogram::Add(double value) {
  FLEXPIPE_DCHECK(value >= 0.0);
  size_t b = BucketFor(value);
  if (b >= buckets_.size()) {
    buckets_.resize(b + 1, 0);
  }
  ++buckets_[b];
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
}

void Histogram::Merge(const Histogram& other) {
  FLEXPIPE_CHECK(other.min_value_ == min_value_ && other.growth_ == growth_);
  if (other.count_ == 0) {
    return;
  }
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::mean() const {
  if (count_ == 0) {
    return 0.0;
  }
  return sum_ / static_cast<double>(count_);
}

double Histogram::Percentile(double q) const {
  FLEXPIPE_CHECK(q >= 0.0 && q <= 100.0);
  if (count_ == 0) {
    return 0.0;
  }
  double target = q / 100.0 * static_cast<double>(count_);
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    double next = static_cast<double>(seen + buckets_[i]);
    if (next >= target) {
      // Interpolate within the bucket, clamped to the observed extrema.
      double lo = BucketLowerBound(i);
      double hi = (i + 1 < buckets_.size()) ? BucketLowerBound(i + 1) : max_;
      double frac =
          buckets_[i] > 0 ? (target - static_cast<double>(seen)) / static_cast<double>(buckets_[i])
                          : 0.0;
      double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return std::clamp(v, min_, max_);
    }
    seen += buckets_[i];
  }
  return max_;
}

}  // namespace flexpipe
