// Pipeline instance: one model replica executing as a chain of stages on GPUs.
//
// Execution model (iteration-level continuous batching, Orca-style):
//   * In-flight requests are spread over S microbatch groups (S = stage count). Each
//     group cycles through the stages as a wave; stage busy-until times serialize
//     competing waves, so pipelining across groups emerges naturally. This is also
//     where Table 2's "max batch = 32 * S" comes from: 32 requests per group buffer.
//   * A group iteration advances every decoding request in the group by one token and
//     runs the prompt pass for newly admitted requests (mixed batching).
//   * A request's next token depends on its previous one, so a group re-enters the
//     pipeline only after its wave exits the last stage — the classic pipeline-parallel
//     decode constraint.
//
// The instance also implements the lifecycle pieces refactoring needs: parallel
// parameter loading (cold from storage / warm from host cache), draining, and
// halt-at-iteration-boundary extraction of in-flight requests with their KV state.
#ifndef FLEXPIPE_SRC_RUNTIME_INSTANCE_H_
#define FLEXPIPE_SRC_RUNTIME_INSTANCE_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/network.h"
#include "src/common/thread_annotations.h"
#include "src/model/cost_model.h"
#include "src/partition/plan.h"
#include "src/runtime/kv_cache.h"
#include "src/runtime/request.h"
#include "src/sim/simulation.h"

namespace flexpipe {

enum class InstanceState : int {
  kLoading = 0,
  kActive = 1,
  kDraining = 2,  // no new admissions; in-flight work continues
  kHalting = 3,   // finishing current iterations, then extracting state
  kReleased = 4,
};

struct InstanceConfig {
  // Which model this replica serves; the router matches requests by model id.
  int model_id = 0;
  int per_group_capacity = 32;  // Table 2 anchor
  Bytes gpu_memory = GiB(40);
  // false = sequential execution: a single wave occupies the whole chain (systems
  // without pipeline-parallel scheduling, e.g. the Tetris baseline).
  bool pipelined = true;
  // Multiplier on stage compute (> 1 models interference from GPU multiplexing).
  double compute_dilation = 1.0;
};

struct InstanceStats {
  int64_t iterations = 0;
  int64_t tokens_generated = 0;
  int64_t prefills_completed = 0;
  int64_t requests_completed = 0;
};

class FLEXPIPE_THREAD_HOSTILE PipelineInstance {
 public:
  using CompletionCallback = std::function<void(Request*)>;
  using PumpCallback = std::function<void()>;
  using HaltCallback = std::function<void(std::vector<Request*> in_flight)>;

  PipelineInstance(Simulation* sim, int id, const PipelinePlan& plan, std::vector<GpuId> gpus,
                   const CostModel* cost_model, const NetworkModel* network,
                   const InstanceConfig& config);

  int id() const { return id_; }
  int model_id() const { return config_.model_id; }
  const PipelinePlan& plan() const { return plan_; }
  const std::vector<GpuId>& gpus() const { return gpus_; }
  int num_stages() const { return plan_.num_stages(); }
  InstanceState state() const { return state_; }

  void set_completion_callback(CompletionCallback cb) { on_complete_ = std::move(cb); }
  void set_pump_callback(PumpCallback cb) { on_pump_ = std::move(cb); }
  // Activation callbacks accumulate (run in registration order): the serving base
  // pumps the router when capacity comes online, and migration sessions wait for
  // their target's activation on top of that.
  void set_activation_callback(std::function<void()> cb) {
    on_activate_.push_back(std::move(cb));
  }

  // -- Lifecycle ---------------------------------------------------------------------
  // Starts loading all stage parameters in parallel; `warm_stages[s]` selects host-cache
  // warm start per stage (empty = all cold). `load_slowdown` (>= 1) models storage/PCIe
  // contention from concurrent scale-ups (supplied by the HRG). The instance
  // self-activates when the slowest stage finishes.
  void BeginLoading(const std::vector<bool>& warm_stages, double load_slowdown = 1.0);
  TimeNs load_finish_time() const { return load_finish_time_; }

  // Immediate activation for handover paths where parameters are already resident.
  void ActivateNow();

  // Refuses further admissions while continuing to serve (used while a migration
  // snapshot is in flight).
  void CloseAdmissions() { admissions_closed_ = true; }

  // Stops admissions; in-flight requests run to completion.
  void StartDraining(std::function<void()> on_drained);

  // Refactoring cutover: stop admissions, finish in-flight iterations, then hand every
  // admitted request (decoding and not-yet-prefilled) to `cb`. KV is cleared.
  void HaltAndExtract(HaltCallback cb);

  // Abrupt failure: the GPUs under this instance just died. Cancels in-flight waves
  // (no iteration boundary — the KV is simply gone), returns every admitted request
  // exactly once (pending/prefilling reset to kQueued; decoding kept as-is so the
  // caller can choose resume-with-recompute vs full restart), and leaves the instance
  // inert for the caller to release. Valid in any pre-released state.
  std::vector<Request*> FailNow();

  void MarkReleased() { state_ = InstanceState::kReleased; }

  // -- Serving -----------------------------------------------------------------------
  bool CanAdmit(const Request& request) const;
  void Admit(Request* request);

  // Re-inserts a mid-decode request after KV migration (tokens already generated are
  // preserved; decode resumes on this instance).
  void InjectDecoding(Request* request);

  int inflight() const { return inflight_; }
  int pending() const { return static_cast<int>(pending_.size()); }
  int capacity() const {
    return config_.per_group_capacity * (config_.pipelined ? num_stages() : 1);
  }
  double LoadFraction() const;

  // -- KV / refactoring support --------------------------------------------------------
  // Requests currently decoding on this instance (snapshot; pointers stay valid).
  std::vector<Request*> CurrentDecoding() const;
  Bytes KvBytesTotal() const { return kv_.TotalBytes(); }
  const KvTracker& kv_tracker() const { return kv_; }

  // -- Planning estimates (used by controllers) ----------------------------------------
  // One full traversal (token latency) at the given per-group decode batch.
  TimeNs EstimateTraversal(int group_batch) const;
  // Steady-state token-production cadence of one group at the given batch.
  TimeNs EstimateCadence(int group_batch) const;

  // -- Health sampling -----------------------------------------------------------------
  // Per-stage cumulative busy time: observed (stretched by any fail-slow degradation on
  // the stage's server) vs base (the healthy cost-model profile). Their ratio is the
  // straggler signal the health monitor watches — exactly 1.0 on a healthy fleet, so a
  // deterministic zero-false-positive baseline.
  TimeNs StageBusyObserved(int stage) const {
    return clocks_[static_cast<size_t>(stage)].busy_accum;
  }
  TimeNs StageBusyBase(int stage) const {
    return clocks_[static_cast<size_t>(stage)].base_accum;
  }
  ServerId StageServer(int stage) const {
    return stages_[static_cast<size_t>(stage)].server;
  }

  // -- Metrics -------------------------------------------------------------------------
  const InstanceStats& stats() const { return stats_; }
  TimeNs TotalStall() const;
  TimeNs TotalBusy() const;

 private:
  // Per-stage cold configuration, written once at construction. Waves never read it
  // on the healthy path: its timing is baked into the rows below, and only a degraded
  // cluster makes TryStart look up the stage's servers.
  struct StageConfig {
    GpuId gpu = kInvalidGpu;
    // Hosting server (and the next stage's), resolved once so the fail-slow hot path
    // reads perf/link factors without topology lookups per wave.
    ServerId server = kInvalidServer;
    ServerId next_server = kInvalidServer;
    bool comm_nic = false;         // next-stage link crosses a NIC (rack/spine tier)
    TimeNs prefill_per_token = 0;  // compute per prompt token
    TimeNs decode_base = 0;        // batch-1 decode compute
    TimeNs overhead = 0;           // fixed per iteration
    Bytes prefill_act_per_token = 0;
    Bytes decode_act_per_req = 0;
    TimeNs comm_latency = 0;       // to the next stage (unused on the last)
    BytesPerSec comm_bandwidth = 0.0;
  };

  // One stage's share of a wave at the healthy profile: compute, then the hop to the
  // next stage (0 on the last stage, so a row sums to the wave's traversal time).
  struct StageTiming {
    TimeNs compute = 0;
    TimeNs comm = 0;
  };

  // The per-stage state a wave reads and writes, packed so that one wave walks one
  // contiguous array in step with its timing row.
  struct StageClock {
    TimeNs busy_until = 0;
    TimeNs busy_accum = 0;   // observed: fail-slow stretch included
    TimeNs base_accum = 0;   // at the healthy cost-model profile; see StageBusyBase
    TimeNs stall_accum = 0;
  };

  struct Group {
    std::vector<Request*> decoding;
    std::vector<Request*> prefilling;
    // In-flight wave state. While `busy`, the wave's prompt batch lives in
    // `wave_prefilling` (recycled across iterations — the hot loop allocates nothing)
    // and the wave's decode batch is the first `wave_decode_count` entries of
    // `decoding`: mid-wave arrivals (InjectDecoding, newly prefilled requests) only
    // ever append, so a prefix index replaces the old per-request membership scan.
    std::vector<Request*> wave_prefilling;
    size_t wave_decode_count = 0;
    bool busy = false;
    // The pending FinishIteration event while `busy`; lets FailNow cancel mid-wave.
    EventId wave_event = 0;
  };

  TimeNs StageIterationTime(size_t stage, int prefill_tokens, int decode_batch) const;
  TimeNs StageCommTime(size_t stage, int prefill_tokens, int decode_batch) const;
  // Writes the timing row (one entry per stage) of a wave with the given shape.
  void FillRow(int prefill_tokens, int decode_batch, StageTiming* row) const;
  // Row of a pure-decode wave; 0 <= decode_batch <= per_group_capacity.
  const StageTiming* DecodeRow(int decode_batch) const {
    return &decode_rows_[static_cast<size_t>(decode_batch) * stages_.size()];
  }

  void PumpGroups();
  void TryStart(size_t group_index);
  void FinishIteration(size_t group_index);
  void AdmitFromPending(Group& group);
  void CompleteRequest(Request* request);
  void CheckHaltAndDrain();
  bool AnyGroupBusy() const;
  void NoteMaybeIdle();

  Simulation* sim_;
  int id_;
  PipelinePlan plan_;
  std::vector<GpuId> gpus_;
  const CostModel* cost_model_;
  const NetworkModel* network_;
  InstanceConfig config_;

  InstanceState state_ = InstanceState::kLoading;
  bool admissions_closed_ = false;
  TimeNs load_finish_time_ = -1;

  std::vector<StageConfig> stages_;
  std::vector<StageClock> clocks_;
  // Batch-major decode table, filled at construction: row b (b = 0..per_group_capacity)
  // is the S stage timings of a pure-decode wave of batch b, at [b * S, (b + 1) * S).
  // Pure-decode waves dominate the event stream and their timing depends only on the
  // batch, so each one reads a single contiguous row.
  std::vector<StageTiming> decode_rows_;
  // Row of the current wave when the table has none: mixed prefill+decode waves (their
  // cost depends on per-request prompt lengths) and groups InjectDecoding overfilled
  // past per_group_capacity.
  std::vector<StageTiming> scratch_row_;
  std::vector<Group> groups_;
  int busy_groups_ = 0;  // count of groups with a wave in flight (== AnyGroupBusy())
  std::deque<Request*> pending_;
  KvTracker kv_;
  int inflight_ = 0;  // prefilling + decoding across groups

  // Timestamp after which the instance has been continuously non-idle; used to tell
  // pipeline bubbles (stall with work present) from plain idleness.
  TimeNs last_all_idle_ = 0;

  CompletionCallback on_complete_;
  PumpCallback on_pump_;
  std::vector<std::function<void()>> on_activate_;
  std::function<void()> on_drained_;
  HaltCallback on_halt_;

  InstanceStats stats_;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_RUNTIME_INSTANCE_H_
