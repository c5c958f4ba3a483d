// Deterministic discrete-event simulation engine.
//
// This is the substrate on which the whole reproduction runs: the cluster, the network
// fabric, and the serving systems are all entities that schedule callbacks on one
// virtual clock. The engine is single-threaded by design — determinism matters more
// than parallel simulation speed for reproducing the paper's experiments — and the
// cluster-scale stress benches push hundreds of thousands of requests through it, so
// the hot path is allocation-free in steady state:
//
//   * Callbacks live in a slab of recycled slots (a free list over one vector), not in
//     per-event hash-map nodes. Scheduling reuses a dead slot; only a new high-water
//     mark grows the slab. EventIds are generation-tagged slot references, so stale ids
//     (already fired or canceled) fail validation in O(1). Cancel releases the callback
//     and removes its queue entry immediately, so canceled events never accumulate
//     under PeriodicTask-heavy multi-model runs.
//   * Every pending event lives in one vector-backed 4-ary heap of packed 16-byte
//     {when, seq|slot} entries. The workload runner keeps one pending arrival, so the
//     heap holds only in-flight work and control timers, never a trace backlog.
//
// Ordering guarantee: events fire in (time, scheduling order) — two events scheduled
// for the same instant run in the order they were scheduled, so runs are
// bit-reproducible.
#ifndef FLEXPIPE_SRC_SIM_SIMULATION_H_
#define FLEXPIPE_SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/common/units.h"

namespace flexpipe {

// Identifies a scheduled event so it can be canceled. Zero is never a valid id.
// Layout: high 32 bits = slot generation, low 32 bits = slot index + 1.
using EventId = uint64_t;

class FLEXPIPE_THREAD_HOSTILE Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimeNs now() const { return now_; }

  // Schedules `fn` to run `delay` after the current virtual time (delay >= 0).
  EventId Schedule(TimeNs delay, std::function<void()> fn);

  // Schedules `fn` at absolute virtual time `when` (>= now()).
  EventId ScheduleAt(TimeNs when, std::function<void()> fn);

  // Cancels a pending event, releasing its callback and queue entry immediately.
  // Canceling an already-fired or unknown id is a no-op and returns false.
  bool Cancel(EventId id);

  // Runs events until the queue empties or `Stop()` is called.
  void RunUntilIdle();

  // Runs events with time <= `end`; the clock lands exactly on `end` afterwards even if
  // the queue drained earlier.
  void RunUntil(TimeNs end);

  // Runs exactly one event if available; returns false when the queue is empty.
  bool Step();

  // Makes Run* return after the current event completes.
  void Stop() { stopped_ = true; }
  void ClearStop() { stopped_ = false; }

  size_t pending_events() const { return heap_.size(); }
  // Slots ever allocated: the high-water mark of concurrently pending events. Cancel
  // recycles its slot and its heap entry immediately, so this stays proportional to
  // the live population under schedule/cancel churn. The churn regression tests pin
  // the bound.
  size_t arena_slots() const { return slots_.size(); }
  uint64_t executed_events() const { return executed_; }

  // Monotonic count of events executed by *all* Simulation instances in this process.
  // The bench runner diffs it around each bench to report events/sec per run.
  static uint64_t process_executed_events();

 private:
  // Debug-build invariant audits recompute slot accounting from the raw containers.
  friend class SimulationAuditor;

  static constexpr uint32_t kNil = 0xffffffffu;

  // Queue entries are 16 bytes so sift paths touch half the cache lines a naive
  // {when, seq, slot} triple would: `key` packs the FIFO tie-breaker sequence number
  // into the high 40 bits (checked: engines run < 2^40 events) and the slot index into
  // the low 24 (checked: < 2^24 concurrently pending events). Comparing `key` compares
  // seq first, and seq is unique, so ordering is identical to comparing (seq, slot).
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  struct HeapEntry {
    TimeNs when;
    uint64_t key;  // (seq << kSlotBits) | slot
    uint32_t slot() const { return static_cast<uint32_t>(key) & kSlotMask; }
  };

  // One arena slot. `generation` advances every time the slot is released, so EventIds
  // referencing a previous tenancy fail validation.
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 1;
    // Index of the slot's heap entry; kNil exactly when the slot holds no pending event.
    uint32_t pos = kNil;
    uint32_t next_free = kNil;
  };

  static bool EarlierThan(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.key < b.key;  // seq occupies the high bits: FIFO among same-time events
  }

  EventId IdOf(uint32_t slot) const {
    return (static_cast<uint64_t>(slots_[slot].generation) << 32) |
           static_cast<uint64_t>(slot + 1);
  }

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);

  // 4-ary heap primitives; every entry move updates the owning slot's backlink.
  void PlaceEntry(size_t index, HeapEntry entry);
  void SiftUp(size_t index);
  void SiftDown(size_t index);
  void PopRoot();
  void RemoveHeapEntry(size_t index);

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  bool stopped_ = false;
  uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;
};

// Repeating task helper: runs `fn` every `interval` starting at now+interval until
// canceled. Used for controller loops and metric samplers.
class FLEXPIPE_THREAD_HOSTILE PeriodicTask {
 public:
  PeriodicTask(Simulation* sim, TimeNs interval, std::function<void()> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Cancel();
  bool active() const { return active_; }

 private:
  void Arm();

  Simulation* sim_;
  TimeNs interval_;
  std::function<void()> fn_;
  EventId pending_ = 0;
  bool active_ = true;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_SIM_SIMULATION_H_
