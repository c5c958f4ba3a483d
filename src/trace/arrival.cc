#include "src/trace/arrival.h"

#include <algorithm>
#include <cmath>

#include "src/common/macros.h"

namespace flexpipe {

namespace {
// Gaps below 1ns would stall the virtual clock; clamp (affects only CV >> 10 regimes).
constexpr TimeNs kMinGap = 1;
}  // namespace

bool ArrivalProcess::TryNextGap(Rng& rng, TimeNs* gap) {
  *gap = NextGap(rng);
  return true;
}

std::vector<TimeNs> ArrivalProcess::GenerateArrivals(Rng& rng, size_t n, TimeNs start) {
  std::vector<TimeNs> out;
  out.reserve(n);
  TimeNs t = start;
  for (size_t i = 0; i < n; ++i) {
    TimeNs gap = 0;
    if (!TryNextGap(rng, &gap)) {
      break;
    }
    t += gap;
    out.push_back(t);
  }
  return out;
}

std::vector<TimeNs> ArrivalProcess::GenerateUntil(Rng& rng, TimeNs end, TimeNs start) {
  std::vector<TimeNs> out;
  TimeNs t = start;
  while (true) {
    TimeNs gap = 0;
    if (!TryNextGap(rng, &gap)) {
      break;
    }
    t += gap;
    if (t >= end) {
      break;
    }
    out.push_back(t);
  }
  return out;
}

PoissonArrivals::PoissonArrivals(double rate_per_sec) : rate_(rate_per_sec) {
  FLEXPIPE_CHECK(rate_per_sec > 0.0);
}

TimeNs PoissonArrivals::NextGap(Rng& rng) {
  return std::max<TimeNs>(kMinGap, FromSeconds(rng.ExponentialMean(1.0 / rate_)));
}

GammaArrivals::GammaArrivals(double rate_per_sec, double cv) {
  FLEXPIPE_CHECK(rate_per_sec > 0.0);
  FLEXPIPE_CHECK(cv > 0.0);
  // For Gamma(shape k, scale theta): mean = k*theta, CV = 1/sqrt(k).
  shape_ = 1.0 / (cv * cv);
  scale_ = (1.0 / rate_per_sec) / shape_;
}

TimeNs GammaArrivals::NextGap(Rng& rng) {
  return std::max<TimeNs>(kMinGap, FromSeconds(rng.Gamma(shape_, scale_)));
}

MmppArrivals::MmppArrivals(const Config& config) : config_(config) {
  FLEXPIPE_CHECK(config.low_rate > 0.0 && config.high_rate > 0.0);
  FLEXPIPE_CHECK(config.mean_low_sojourn_s > 0.0 && config.mean_high_sojourn_s > 0.0);
}

TimeNs MmppArrivals::NextGap(Rng& rng) {
  double gap_s = 0.0;
  while (true) {
    if (state_left_s_ <= 0.0) {
      in_high_ = !in_high_;
      state_left_s_ =
          rng.ExponentialMean(in_high_ ? config_.mean_high_sojourn_s : config_.mean_low_sojourn_s);
    }
    double rate = in_high_ ? config_.high_rate : config_.low_rate;
    double candidate = rng.ExponentialMean(1.0 / rate);
    if (candidate <= state_left_s_) {
      state_left_s_ -= candidate;
      gap_s += candidate;
      break;
    }
    // No arrival before the state flips; consume the remaining sojourn and retry.
    gap_s += state_left_s_;
    state_left_s_ = 0.0;
  }
  return std::max<TimeNs>(kMinGap, FromSeconds(gap_s));
}

TraceReplayArrivals::TraceReplayArrivals(std::vector<TimeNs> timestamps)
    : timestamps_(std::move(timestamps)) {
  for (size_t i = 1; i < timestamps_.size(); ++i) {
    FLEXPIPE_CHECK_MSG(timestamps_[i] >= timestamps_[i - 1], "trace must be sorted");
  }
}

TimeNs TraceReplayArrivals::NextGap(Rng& rng) {
  TimeNs gap = 0;
  FLEXPIPE_CHECK_MSG(TryNextGap(rng, &gap), "trace exhausted");
  return gap;
}

bool TraceReplayArrivals::TryNextGap(Rng& /*rng*/, TimeNs* gap) {
  if (next_ >= timestamps_.size()) {
    return false;
  }
  *gap = std::max<TimeNs>(kMinGap, timestamps_[next_] - last_);
  last_ = timestamps_[next_];
  ++next_;
  return true;
}

std::unique_ptr<ArrivalProcess> MakeArrivalsWithCv(double rate_per_sec, double cv) {
  if (std::abs(cv - 1.0) < 1e-9) {
    return std::make_unique<PoissonArrivals>(rate_per_sec);
  }
  return std::make_unique<GammaArrivals>(rate_per_sec, cv);
}

}  // namespace flexpipe
