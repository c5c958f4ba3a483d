// Streaming workload sources.
//
// Every run drives its workload through one pull interface, RequestStream: the runner
// (RunStreamingWorkload / WorkloadHarness) draws the next request on demand from one
// self-rescheduling arrival event, so the engine holds a single pending workload event
// and request storage is recycled — engine and workload memory stay proportional to
// in-flight work, not trace length. A StreamingWorkloadSource generates requests
// lazily with O(1) state; a VectorRequestStream replays a trace the caller already
// holds (unit-test workloads, replayed production traces).
//
// Determinism contract: a StreamingWorkloadSource draws arrival gaps from its own RNG
// in exactly the order ArrivalProcess::GenerateUntil would, so for the same seed the
// streamed arrival sequence is bit-identical to the one GenerateUntil materializes
// (pinned by trace_test's equivalence suite across Poisson/Gamma/MMPP). Token lengths
// come from a dedicated child RNG stream: the materialized generator interleaves length
// draws *after* the full arrival pass, an order no lazy generator can reproduce —
// arrival times are the pinned contract.
#ifndef FLEXPIPE_SRC_TRACE_STREAMING_H_
#define FLEXPIPE_SRC_TRACE_STREAMING_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/trace/workload.h"

namespace flexpipe {

// Pull interface the streaming runner drives: one request at a time, in
// non-decreasing arrival order.
class FLEXPIPE_THREAD_HOSTILE RequestStream {
 public:
  virtual ~RequestStream() = default;

  // Fills `*out` with the next request and returns true; false once the stream is
  // exhausted (`*out` is left untouched).
  virtual bool Next(RequestSpec* out) = 0;

  // Upper bound on arrival times (a generator's configured duration, a replayed
  // trace's last arrival); the runner derives the default run horizon from it.
  virtual TimeNs end_time() const = 0;
};

// Lazily generates the requests GenerateUntil would have materialized: one arrival-gap
// draw per Next call, identical draw order, O(1) memory.
class StreamingWorkloadSource : public RequestStream {
 public:
  // `arrival_rng` must carry the state GenerateUntil would be handed for bit-identical
  // arrivals. `end` bounds arrivals (exclusive), `start` offsets the first gap like
  // GenerateUntil's `start`.
  StreamingWorkloadSource(const WorkloadGenerator::Config& config,
                          std::unique_ptr<ArrivalProcess> arrivals, Rng arrival_rng,
                          Rng length_rng, TimeNs end, TimeNs start = 0);

  // Mirrors WorkloadGenerator::GenerateWithCv: CV==1 -> Poisson, else Gamma renewal.
  // Arrivals draw from a copy of `base_rng`; lengths from its "lengths" child stream.
  static StreamingWorkloadSource WithCv(const WorkloadGenerator::Config& config,
                                        double rate_per_sec, double cv, TimeNs duration,
                                        const Rng& base_rng);

  bool Next(RequestSpec* out) override;
  TimeNs end_time() const override { return end_; }

  // Requests emitted so far (ids are 1-based and dense, like FillSpecs).
  uint64_t emitted() const { return next_id_ - 1; }

 private:
  WorkloadGenerator::Config config_;
  LengthSampler sampler_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  Rng arrival_rng_;
  Rng length_rng_;
  TimeNs end_;
  TimeNs t_;
  RequestId next_id_ = 1;
  bool exhausted_ = false;
};

// Replays a caller-owned trace in order. The vector must outlive the stream and
// its arrivals must never decrease (checked as they are emitted). end_time() is the
// last arrival (0 when empty), so the runner's default horizon is last arrival +
// warmup + drain_grace.
class VectorRequestStream : public RequestStream {
 public:
  explicit VectorRequestStream(const std::vector<RequestSpec>& specs) : specs_(specs) {}
  // A temporary trace would dangle before the first Next().
  explicit VectorRequestStream(std::vector<RequestSpec>&&) = delete;

  bool Next(RequestSpec* out) override;
  TimeNs end_time() const override { return specs_.empty() ? 0 : specs_.back().arrival; }

 private:
  const std::vector<RequestSpec>& specs_;
  size_t next_ = 0;
};

// Merges per-model streams into one time-ordered stream with the same ordering
// contract as MergeWorkloads: stable sort by arrival (ties break toward the earlier
// part index) and dense re-numbered ids. Holds one pending request per part — O(parts)
// memory regardless of trace length.
class MergedRequestStream : public RequestStream {
 public:
  explicit MergedRequestStream(std::vector<std::unique_ptr<RequestStream>> parts);

  bool Next(RequestSpec* out) override;
  TimeNs end_time() const override { return end_; }

 private:
  struct Head {
    RequestSpec spec;
    bool live = false;
  };

  std::vector<std::unique_ptr<RequestStream>> parts_;
  std::vector<Head> heads_;
  TimeNs end_ = 0;
  RequestId next_id_ = 1;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_TRACE_STREAMING_H_
