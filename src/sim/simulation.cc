#include "src/sim/simulation.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <utility>

#include "src/common/macros.h"
#include "src/common/thread_annotations.h"

namespace flexpipe {

namespace {
// Process-wide executed-event counter. Engines stay single-threaded, but the parallel
// sweep driver runs several of them concurrently, so the aggregate counter is atomic
// (relaxed: a monotone statistic, never synchronises anything).
FLEXPIPE_THREAD_SAFE_GLOBAL std::atomic<uint64_t> g_process_executed{0};
}  // namespace

uint64_t Simulation::process_executed_events() {
  return g_process_executed.load(std::memory_order_relaxed);
}

uint32_t Simulation::AcquireSlot() {
  if (free_head_ != kNil) {
    uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNil;
    return slot;
  }
  FLEXPIPE_CHECK_MSG(slots_.size() < kSlotMask, "event arena exhausted");
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulation::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;  // invalidate outstanding EventIds for this tenancy
  s.pos = kNil;
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulation::PlaceEntry(size_t index, HeapEntry entry) {
  slots_[entry.slot()].pos = static_cast<uint32_t>(index);
  heap_[index] = entry;
}

// 4-ary heap: same comparison count as binary but half the levels, so pops touch half
// the cache lines. Children of i are [4i+1, 4i+4]; parent of i is (i-1)/4.
void Simulation::SiftUp(size_t index) {
  HeapEntry entry = heap_[index];
  while (index > 0) {
    size_t parent = (index - 1) / 4;
    if (!EarlierThan(entry, heap_[parent])) {
      break;
    }
    PlaceEntry(index, heap_[parent]);
    index = parent;
  }
  PlaceEntry(index, entry);
}

void Simulation::SiftDown(size_t index) {
  HeapEntry entry = heap_[index];
  const size_t size = heap_.size();
  for (;;) {
    size_t first = 4 * index + 1;
    if (first >= size) {
      break;
    }
    size_t best = first;
    size_t last = std::min(first + 4, size);
    for (size_t c = first + 1; c < last; ++c) {
      if (EarlierThan(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!EarlierThan(heap_[best], entry)) {
      break;
    }
    PlaceEntry(index, heap_[best]);
    index = best;
  }
  PlaceEntry(index, entry);
}

// Bottom-up delete-min: percolate the root hole to a leaf along minimal children (no
// comparison against the relocated element on the way down), then reinsert the last
// element at the leaf hole and sift it up — usually a no-op, since it came from the
// bottom. Fewer comparisons than a classic sift-down for pop-heavy workloads.
void Simulation::PopRoot() {
  size_t last = heap_.size() - 1;
  if (last == 0) {
    heap_.pop_back();
    return;
  }
  size_t hole = 0;
  for (;;) {
    size_t first = 4 * hole + 1;
    if (first >= last) {
      break;
    }
    size_t best = first;
    size_t stop = std::min(first + 4, last);
    for (size_t c = first + 1; c < stop; ++c) {
      if (EarlierThan(heap_[c], heap_[best])) {
        best = c;
      }
    }
    PlaceEntry(hole, heap_[best]);
    hole = best;
  }
  HeapEntry moved = heap_[last];
  heap_.pop_back();
  PlaceEntry(hole, moved);
  SiftUp(hole);
}

void Simulation::RemoveHeapEntry(size_t index) {
  size_t last = heap_.size() - 1;
  if (index != last) {
    HeapEntry moved = heap_[last];
    heap_.pop_back();
    PlaceEntry(index, moved);
    // The replacement came from the bottom of the heap: after SiftDown it either moved
    // down or, already being >= its parent chain, stays put and SiftUp is a no-op.
    SiftDown(index);
    SiftUp(index);
  } else {
    heap_.pop_back();
  }
}

EventId Simulation::Schedule(TimeNs delay, std::function<void()> fn) {
  FLEXPIPE_CHECK_MSG(delay >= 0, "cannot schedule into the past");
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulation::ScheduleAt(TimeNs when, std::function<void()> fn) {
  FLEXPIPE_CHECK_MSG(when >= now_, "cannot schedule into the past");
  FLEXPIPE_CHECK(fn != nullptr);
  uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  // A hard check (not DCHECK): past 2^40 events the packed key would wrap and silently
  // break the ordering guarantee in release builds too.
  FLEXPIPE_CHECK_MSG(next_seq_ < (uint64_t{1} << 40), "event sequence space exhausted");
  heap_.push_back(HeapEntry{when, (next_seq_++ << kSlotBits) | slot});
  SiftUp(heap_.size() - 1);
  return IdOf(slot);
}

bool Simulation::Cancel(EventId id) {
  uint32_t low = static_cast<uint32_t>(id);
  if (low == 0 || low > slots_.size()) {
    return false;
  }
  uint32_t slot = low - 1;
  Slot& s = slots_[slot];
  if (s.generation != static_cast<uint32_t>(id >> 32) || s.pos == kNil) {
    return false;  // already fired, already canceled, or a stale generation
  }
  RemoveHeapEntry(s.pos);
  s.fn = nullptr;  // release captured state now, not at fire time
  ReleaseSlot(slot);
  return true;
}

bool Simulation::Step() {
  if (heap_.empty()) {
    return false;
  }
  const HeapEntry top = heap_[0];
  FLEXPIPE_DCHECK(top.when >= now_);
  now_ = top.when;
  // Move the callback out and retire the slot before running: the callback may
  // schedule new events (possibly growing the slab) or cancel others, and canceling
  // the currently-firing event must be a no-op.
  std::function<void()> fn = std::move(slots_[top.slot()].fn);
  PopRoot();
  ReleaseSlot(top.slot());
  ++executed_;
  g_process_executed.fetch_add(1, std::memory_order_relaxed);
  fn();
  return true;
}

void Simulation::RunUntilIdle() {
  stopped_ = false;
  while (!stopped_) {
    if (!Step()) {
      break;
    }
  }
}

void Simulation::RunUntil(TimeNs end) {
  FLEXPIPE_CHECK(end >= now_);
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_[0].when <= end) {
    Step();
  }
  if (!stopped_ && now_ < end) {
    now_ = end;
  }
}

PeriodicTask::PeriodicTask(Simulation* sim, TimeNs interval, std::function<void()> fn)
    : sim_(sim), interval_(interval), fn_(std::move(fn)) {
  FLEXPIPE_CHECK(sim_ != nullptr);
  FLEXPIPE_CHECK(interval_ > 0);
  FLEXPIPE_CHECK(fn_ != nullptr);
  Arm();
}

PeriodicTask::~PeriodicTask() { Cancel(); }

void PeriodicTask::Arm() {
  pending_ = sim_->Schedule(interval_, [this] {
    if (!active_) {
      return;
    }
    fn_();
    if (active_) {  // fn_ may have canceled us
      Arm();
    }
  });
}

void PeriodicTask::Cancel() {
  if (!active_) {
    return;
  }
  active_ = false;
  if (pending_ != 0) {
    sim_->Cancel(pending_);
    pending_ = 0;
  }
}

}  // namespace flexpipe
