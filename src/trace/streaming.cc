#include "src/trace/streaming.h"

#include <algorithm>

#include "src/common/macros.h"

namespace flexpipe {

StreamingWorkloadSource::StreamingWorkloadSource(const WorkloadGenerator::Config& config,
                                                 std::unique_ptr<ArrivalProcess> arrivals,
                                                 Rng arrival_rng, Rng length_rng,
                                                 TimeNs end, TimeNs start)
    : config_(config),
      sampler_(config.lengths),
      arrivals_(std::move(arrivals)),
      arrival_rng_(std::move(arrival_rng)),
      length_rng_(std::move(length_rng)),
      end_(end),
      t_(start) {
  FLEXPIPE_CHECK(arrivals_ != nullptr);
}

StreamingWorkloadSource StreamingWorkloadSource::WithCv(
    const WorkloadGenerator::Config& config, double rate_per_sec, double cv,
    TimeNs duration, const Rng& base_rng) {
  return StreamingWorkloadSource(config, MakeArrivalsWithCv(rate_per_sec, cv),
                                 /*arrival_rng=*/base_rng,
                                 /*length_rng=*/base_rng.Child("lengths"), duration);
}

bool StreamingWorkloadSource::Next(RequestSpec* out) {
  if (exhausted_) {
    return false;
  }
  // Identical draw order to GenerateUntil: one gap per emitted arrival, plus the final
  // gap whose crossing of `end` terminates the stream. A finite process (trace
  // replay) can also terminate the stream by exhausting before `end`.
  TimeNs gap = 0;
  if (!arrivals_->TryNextGap(arrival_rng_, &gap)) {
    exhausted_ = true;
    return false;
  }
  t_ += gap;
  if (t_ >= end_) {
    exhausted_ = true;
    return false;
  }
  out->id = next_id_++;
  out->arrival = t_;
  out->model_index = config_.model_index;
  out->prompt_tokens = sampler_.SamplePromptTokens(length_rng_);
  out->output_tokens = sampler_.SampleOutputTokens(length_rng_);
  out->slo = config_.slo;
  return true;
}

bool VectorRequestStream::Next(RequestSpec* out) {
  if (next_ == specs_.size()) {
    return false;
  }
  FLEXPIPE_CHECK_MSG(next_ == 0 || specs_[next_ - 1].arrival <= specs_[next_].arrival,
                     "trace arrivals must not decrease");
  *out = specs_[next_++];
  return true;
}

MergedRequestStream::MergedRequestStream(std::vector<std::unique_ptr<RequestStream>> parts)
    : parts_(std::move(parts)), heads_(parts_.size()) {
  FLEXPIPE_CHECK(!parts_.empty());
  for (size_t i = 0; i < parts_.size(); ++i) {
    FLEXPIPE_CHECK(parts_[i] != nullptr);
    end_ = std::max(end_, parts_[i]->end_time());
    heads_[i].live = parts_[i]->Next(&heads_[i].spec);
  }
}

bool MergedRequestStream::Next(RequestSpec* out) {
  size_t best = heads_.size();
  for (size_t i = 0; i < heads_.size(); ++i) {
    // Strict < keeps ties on the earliest part index: MergeWorkloads' stable sort.
    if (heads_[i].live &&
        (best == heads_.size() || heads_[i].spec.arrival < heads_[best].spec.arrival)) {
      best = i;
    }
  }
  if (best == heads_.size()) {
    return false;
  }
  *out = heads_[best].spec;
  out->id = next_id_++;
  heads_[best].live = parts_[best]->Next(&heads_[best].spec);
  return true;
}

}  // namespace flexpipe
