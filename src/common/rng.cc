#include "src/common/rng.h"

#include <cmath>

#include "src/common/macros.h"

namespace flexpipe {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng Rng::Child(std::string_view label) const {
  uint64_t state = seed_;
  for (char c : label) {
    state = SplitMix64(state) ^ static_cast<uint64_t>(static_cast<unsigned char>(c));
  }
  // One extra scramble so short labels still diverge strongly.
  uint64_t child_seed = SplitMix64(state);
  return Rng(child_seed);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  FLEXPIPE_DCHECK(lo <= hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::ExponentialMean(double mean) {
  FLEXPIPE_DCHECK(mean > 0.0);
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

double Rng::Gamma(double shape, double scale) {
  FLEXPIPE_DCHECK(shape > 0.0 && scale > 0.0);
  std::gamma_distribution<double> dist(shape, scale);
  return dist(engine_);
}

double Rng::LogNormal(double mu, double sigma) {
  std::lognormal_distribution<double> dist(mu, sigma);
  return dist(engine_);
}

double Rng::Pareto(double xm, double alpha) {
  FLEXPIPE_DCHECK(xm > 0.0 && alpha > 0.0);
  double u = Uniform();
  if (u <= 0.0) {
    u = 1e-12;
  }
  return xm / std::pow(u, 1.0 / alpha);
}

}  // namespace flexpipe
