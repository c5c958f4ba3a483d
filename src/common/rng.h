// Deterministic random number generation.
//
// All stochastic behaviour in FlexPipe flows through Rng instances seeded from the
// experiment configuration, so every run is reproducible. SplitMix64 is used for
// stream-splitting (each component derives an independent child stream from its name),
// while the heavy distributions ride on std::mt19937_64.
#ifndef FLEXPIPE_SRC_COMMON_RNG_H_
#define FLEXPIPE_SRC_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <string_view>

#include "src/common/thread_annotations.h"

namespace flexpipe {

// SplitMix64 step; also usable standalone as a cheap hash mixer.
uint64_t SplitMix64(uint64_t& state);

class FLEXPIPE_THREAD_HOSTILE Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed), seed_(seed) {}

  // Derives an independent child stream keyed by `label`. Two children with different
  // labels (or from different parents) produce uncorrelated streams.
  Rng Child(std::string_view label) const;

  uint64_t seed() const { return seed_; }

  double Uniform() { return uniform_(engine_); }  // [0, 1)
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  int64_t UniformInt(int64_t lo, int64_t hi);  // inclusive range [lo, hi]

  // Exponential with given mean (not rate).
  double ExponentialMean(double mean);

  // Gamma with the given shape k and scale theta (mean = k * theta).
  double Gamma(double shape, double scale);

  double LogNormal(double mu, double sigma);

  // Pareto with minimum xm and tail index alpha.
  double Pareto(double xm, double alpha);

  bool Bernoulli(double p) { return Uniform() < p; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
  uint64_t seed_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_COMMON_RNG_H_
