#include "src/runtime/kv_cache.h"

#include <algorithm>
#include <bit>

namespace flexpipe {

KvValidityMask::KvValidityMask(int capacity_tokens) : capacity_(capacity_tokens) {
  FLEXPIPE_CHECK(capacity_tokens >= 0);
  bits_.resize(static_cast<size_t>((capacity_tokens + 63) / 64), 0);
}

bool KvValidityMask::IsValid(int token) const {
  FLEXPIPE_DCHECK(token >= 0 && token < capacity_);
  return (bits_[static_cast<size_t>(token) / 64] >> (static_cast<unsigned>(token) % 64)) & 1ULL;
}

void KvValidityMask::MarkValid(int begin, int end) {
  FLEXPIPE_CHECK(begin >= 0 && end <= capacity_ && begin <= end);
  // Word-at-a-time: popcount the newly set bits instead of testing each token.
  for (int base = begin & ~63; base < end; base += 64) {
    int lo = begin > base ? begin - base : 0;
    int hi = end - base < 64 ? end - base : 64;
    uint64_t& word = bits_[static_cast<size_t>(base) / 64];
    uint64_t added = RangeMask(lo, hi) & ~word;
    word |= added;
    valid_count_ += std::popcount(added);
  }
}

void KvValidityMask::MarkInvalid(int begin, int end) {
  FLEXPIPE_CHECK(begin >= 0 && end <= capacity_ && begin <= end);
  for (int base = begin & ~63; base < end; base += 64) {
    int lo = begin > base ? begin - base : 0;
    int hi = end - base < 64 ? end - base : 64;
    uint64_t& word = bits_[static_cast<size_t>(base) / 64];
    uint64_t removed = RangeMask(lo, hi) & word;
    word &= ~removed;
    valid_count_ -= std::popcount(removed);
  }
}

int KvValidityMask::invalid_in(int begin, int end) const {
  FLEXPIPE_CHECK(begin >= 0 && end <= capacity_ && begin <= end);
  int valid = 0;
  for (int base = begin & ~63; base < end; base += 64) {
    int lo = begin > base ? begin - base : 0;
    int hi = end - base < 64 ? end - base : 64;
    valid += std::popcount(bits_[static_cast<size_t>(base) / 64] & RangeMask(lo, hi));
  }
  return (end - begin) - valid;
}

KvTracker::KvTracker(int num_stages, Bytes per_stage_budget, Bytes kv_bytes_per_token_per_stage)
    : num_stages_(num_stages),
      budget_per_stage_(per_stage_budget),
      kv_per_token_per_stage_(kv_bytes_per_token_per_stage) {
  FLEXPIPE_CHECK(num_stages >= 1);
  FLEXPIPE_CHECK(per_stage_budget >= 0);
  FLEXPIPE_CHECK(kv_bytes_per_token_per_stage >= 0);
}

bool KvTracker::Fits(int total_tokens) const {
  Bytes need = static_cast<Bytes>(total_tokens) * kv_per_token_per_stage_;
  return used_per_stage_ + need <= budget_per_stage_;
}

auto KvTracker::Find(RequestId id) const -> std::vector<Resident>::const_iterator {
  auto it = std::lower_bound(
      tokens_.begin(), tokens_.end(), id,
      [](const Resident& r, RequestId key) { return r.id < key; });
  if (it == tokens_.end() || it->id != id) {
    return tokens_.end();
  }
  return it;
}

void KvTracker::Admit(RequestId id, int total_tokens) {
  FLEXPIPE_CHECK_MSG(Fits(total_tokens), "KV admission over budget");
  auto it = std::lower_bound(
      tokens_.begin(), tokens_.end(), id,
      [](const Resident& r, RequestId key) { return r.id < key; });
  FLEXPIPE_CHECK(it == tokens_.end() || it->id != id);
  tokens_.insert(it, Resident{id, total_tokens});
  used_per_stage_ += static_cast<Bytes>(total_tokens) * kv_per_token_per_stage_;
}

void KvTracker::Remove(RequestId id) {
  auto it = Find(id);
  FLEXPIPE_CHECK(it != tokens_.end());
  used_per_stage_ -= static_cast<Bytes>(it->tokens) * kv_per_token_per_stage_;
  FLEXPIPE_CHECK(used_per_stage_ >= 0);
  tokens_.erase(it);
}

void KvTracker::Clear() {
  tokens_.clear();
  used_per_stage_ = 0;
}

Bytes KvTracker::TotalBytes() const { return used_per_stage_ * num_stages_; }

}  // namespace flexpipe
