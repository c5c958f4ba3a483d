// KV-cache bookkeeping and the token-level validity mask of Eq. 10.
//
// During inflight refactoring the consistent cache state is
//     C(t) = ∪_i KV_i(t) ⊗ M_valid
// i.e. per-token validity masks decide what must still be synchronized. We implement the
// mask as a real bitmap: the refactoring engine snapshots a request's KV, keeps serving
// on the old pipeline (newly generated tokens invalidate mask bits), then ships the
// delta at cutover. Tests exercise the mask algebra directly.
#ifndef FLEXPIPE_SRC_RUNTIME_KV_CACHE_H_
#define FLEXPIPE_SRC_RUNTIME_KV_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/common/macros.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/trace/workload.h"

namespace flexpipe {

class FLEXPIPE_THREAD_HOSTILE KvValidityMask {
 public:
  explicit KvValidityMask(int capacity_tokens);

  int capacity() const { return capacity_; }
  int valid_count() const { return valid_count_; }
  int invalid_in(int begin, int end) const;  // invalid tokens in [begin, end), popcount

  bool IsValid(int token) const;
  void MarkValid(int begin, int end);
  void MarkInvalid(int begin, int end);

  // Visits fn(begin, end) for every maximal run of invalid tokens in [0, upto),
  // allocation-free. All-valid and all-invalid 64-token words are handled with one
  // compare each, so delta-sync costing over mostly-settled masks is O(words), not
  // O(tokens).
  template <typename Fn>
  void ForEachInvalidRange(int upto, Fn&& fn) const {
    FLEXPIPE_CHECK(upto >= 0 && upto <= capacity_);
    int run_start = -1;
    for (int base = 0; base < upto; base += 64) {
      int limit = upto - base < 64 ? upto - base : 64;
      uint64_t relevant = RangeMask(0, limit);
      uint64_t invalid = ~bits_[static_cast<size_t>(base) / 64] & relevant;
      if (invalid == 0) {  // all valid: any open run ended at this word's boundary
        if (run_start >= 0) {
          fn(run_start, base);
          run_start = -1;
        }
        continue;
      }
      if (invalid == relevant) {  // all invalid: run extends through the word
        if (run_start < 0) {
          run_start = base;
        }
        continue;
      }
      for (int bit = 0; bit < limit; ++bit) {
        if ((invalid >> bit) & 1) {
          if (run_start < 0) {
            run_start = base + bit;
          }
        } else if (run_start >= 0) {
          fn(run_start, base + bit);
          run_start = -1;
        }
      }
    }
    if (run_start >= 0) {
      fn(run_start, upto);
    }
  }

 private:
  // Bits [begin, end) of a 64-bit word, where 0 <= begin <= end <= 64.
  static uint64_t RangeMask(int begin, int end) {
    uint64_t hi = end == 64 ? ~0ull : (1ull << end) - 1;
    uint64_t lo = (1ull << begin) - 1;
    return hi & ~lo;
  }

  int capacity_;
  int valid_count_ = 0;
  std::vector<uint64_t> bits_;
};

// Per-instance KV accounting: bytes per stage, per request. The instance enforces its
// per-stage KV budget through this tracker; the refactoring engine reads per-request
// footprints when costing migrations.
class FLEXPIPE_THREAD_HOSTILE KvTracker {
 public:
  KvTracker(int num_stages, Bytes per_stage_budget, Bytes kv_bytes_per_token_per_stage);

  // Whether a request with `total_tokens` (prompt + max output) fits in every stage.
  bool Fits(int total_tokens) const;
  void Admit(RequestId id, int total_tokens);
  void Remove(RequestId id);
  void Clear();

  Bytes used_per_stage() const { return used_per_stage_; }
  Bytes budget_per_stage() const { return budget_per_stage_; }
  int resident_requests() const { return static_cast<int>(tokens_.size()); }

  // Total KV bytes across all stages for everything resident.
  Bytes TotalBytes() const;
  Bytes BytesForTokens(int tokens) const {
    return static_cast<Bytes>(tokens) * kv_per_token_per_stage_ * num_stages_;
  }

 private:
  struct Resident {
    RequestId id = 0;
    int tokens = 0;
  };
  // Sorted by id (binary-search lookups). Residency is bounded by instance capacity
  // (a few hundred requests), so the flat vector beats hashing and — unlike a hash
  // table — iterates in a deterministic order.
  std::vector<Resident>::const_iterator Find(RequestId id) const;

  int num_stages_;
  Bytes budget_per_stage_;
  Bytes kv_per_token_per_stage_;
  Bytes used_per_stage_ = 0;
  std::vector<Resident> tokens_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_RUNTIME_KV_CACHE_H_
