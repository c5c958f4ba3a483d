// Arrival processes with controllable burstiness.
//
// Every experiment in the paper is parameterised by the coefficient of variation (CV) of
// request inter-arrival times. A Gamma renewal process hits any target CV exactly
// (shape = 1/CV^2); an on/off Markov-modulated Poisson process (MMPP) produces the
// correlated bursts seen in the CV=8 runs of Fig. 9; trace replay feeds recorded
// timestamps back in.
#ifndef FLEXPIPE_SRC_TRACE_ARRIVAL_H_
#define FLEXPIPE_SRC_TRACE_ARRIVAL_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"

namespace flexpipe {

class FLEXPIPE_THREAD_HOSTILE ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  // Returns the next inter-arrival gap in virtual time (> 0). Finite processes
  // (trace replay) CHECK-fail once exhausted; callers that may outrun a finite
  // process must use TryNextGap instead.
  virtual TimeNs NextGap(Rng& rng) = 0;

  // Exhaustion-aware draw: fills `*gap` and returns true, or returns false once the
  // process has no further arrivals (`*gap` is left untouched). Only finite
  // processes ever exhaust; the default forwards to NextGap and always succeeds, so
  // renewal/MMPP subclasses need no override.
  virtual bool TryNextGap(Rng& rng, TimeNs* gap);

  // Generates `n` absolute arrival timestamps starting at `start`; a finite process
  // that exhausts early returns the timestamps drawn so far.
  std::vector<TimeNs> GenerateArrivals(Rng& rng, size_t n, TimeNs start = 0);

  // Generates timestamps until `end` (exclusive) starting at `start`, stopping early
  // if the process exhausts.
  std::vector<TimeNs> GenerateUntil(Rng& rng, TimeNs end, TimeNs start = 0);
};

// Memoryless arrivals (CV = 1).
class PoissonArrivals : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate_per_sec);
  TimeNs NextGap(Rng& rng) override;

 private:
  double rate_;
};

// Gamma renewal process: inter-arrival CV is exactly `cv`, mean rate `rate_per_sec`.
// cv < 1 is more regular than Poisson, cv > 1 burstier.
class GammaArrivals : public ArrivalProcess {
 public:
  GammaArrivals(double rate_per_sec, double cv);
  TimeNs NextGap(Rng& rng) override;

 private:
  double shape_;
  double scale_;  // seconds
};

// Two-state MMPP: alternates between a low-rate and a high-rate Poisson regime with
// exponentially distributed sojourn times. Produces temporally correlated bursts, which
// a renewal process cannot.
class MmppArrivals : public ArrivalProcess {
 public:
  struct Config {
    double low_rate = 5.0;           // req/s in the calm state
    double high_rate = 80.0;         // req/s in the burst state
    double mean_low_sojourn_s = 20;  // mean time spent calm
    double mean_high_sojourn_s = 4;  // mean burst duration
  };
  explicit MmppArrivals(const Config& config);
  TimeNs NextGap(Rng& rng) override;

 private:
  Config config_;
  bool in_high_ = false;
  double state_left_s_ = 0.0;  // time remaining in the current state
};

// Replays a fixed list of timestamps (must be non-decreasing).
class TraceReplayArrivals : public ArrivalProcess {
 public:
  explicit TraceReplayArrivals(std::vector<TimeNs> timestamps);
  TimeNs NextGap(Rng& rng) override;
  // Reports end-of-trace instead of CHECK-failing: returns false past the last
  // timestamp, so replay-backed streams can drain gracefully.
  bool TryNextGap(Rng& rng, TimeNs* gap) override;
  bool exhausted() const { return next_ >= timestamps_.size(); }

 private:
  std::vector<TimeNs> timestamps_;
  size_t next_ = 0;
  TimeNs last_ = 0;
};

// Factory used by benches: CV==1 -> Poisson, otherwise Gamma renewal.
std::unique_ptr<ArrivalProcess> MakeArrivalsWithCv(double rate_per_sec, double cv);

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_TRACE_ARRIVAL_H_
