// Streaming statistics primitives.
//
// RunningStats is Welford's online mean/variance — used everywhere a CV (coefficient of
// variation) is needed. SlidingWindowStats keeps the last W samples for windowed CV
// computation (the paper's ν_t over 15 s / 180 s / 3 h / 12 h windows).
#ifndef FLEXPIPE_SRC_COMMON_STATS_H_
#define FLEXPIPE_SRC_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/thread_annotations.h"

namespace flexpipe {

class FLEXPIPE_THREAD_HOSTILE RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }
  // Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  // Coefficient of variation sigma/mu; 0 when the mean is 0.
  double cv() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-capacity FIFO of samples with O(1) mean/variance updates. Samples live in a
// flat ring buffer (grown lazily up to `capacity`), so Add never touches an allocator
// once the window is warm — this sits on the per-arrival path of every CvMonitor.
class FLEXPIPE_THREAD_HOSTILE SlidingWindowStats {
 public:
  explicit SlidingWindowStats(size_t capacity);

  void Add(double x);

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return ring_.size() == capacity_; }
  double mean() const;
  double variance() const;
  double stddev() const;
  double cv() const;

 private:
  size_t capacity_;
  std::vector<double> ring_;  // grows to capacity_, then overwrites at next_
  size_t next_ = 0;           // slot the next sample lands in once full
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

// Exact percentile over a collected sample set. Interpolates between order statistics.
// `q` is in [0, 100].
double Percentile(std::vector<double> samples, double q);

// Percentile when the caller already sorted the samples ascending.
double PercentileSorted(const std::vector<double>& sorted, double q);

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_COMMON_STATS_H_
