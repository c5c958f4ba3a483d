// Log-bucketed latency histogram.
//
// Benches record millions of request latencies; storing them all is wasteful and exact
// percentiles are not needed (the paper reports at most two significant digits). Buckets
// grow geometrically so relative error is bounded (~ growth-1) across nine decades.
#ifndef FLEXPIPE_SRC_COMMON_HISTOGRAM_H_
#define FLEXPIPE_SRC_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/common/thread_annotations.h"

namespace flexpipe {

class FLEXPIPE_THREAD_HOSTILE Histogram {
 public:
  // `min_value` is the smallest distinguishable value; anything below lands in bucket 0.
  // `growth` is the geometric bucket ratio (1.05 -> <=5% relative error).
  explicit Histogram(double min_value = 1e-6, double growth = 1.05);

  void Add(double value);
  void Merge(const Histogram& other);

  int64_t count() const { return count_; }
  double mean() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  // q in [0, 100]; returns the bucket-interpolated quantile.
  double Percentile(double q) const;

 private:
  size_t BucketFor(double value) const;
  double BucketLowerBound(size_t index) const;

  double min_value_;
  double growth_;
  double inv_log_growth_;  // 1/log(growth): Add pays one log and one multiply, no divide
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_COMMON_HISTOGRAM_H_
