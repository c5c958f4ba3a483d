#include "src/runtime/instance.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/macros.h"

namespace flexpipe {

namespace {

// Sarathi-style chunked admission: prompt work mixed into a decode iteration is bounded
// so prefill cannot starve token production. At least one pending request is admitted
// per iteration regardless, so long prompts cannot be starved either.
constexpr int kMaxPrefillRequestsPerIteration = 4;
constexpr int kPrefillTokenBudgetPerIteration = 1024;

}  // namespace

PipelineInstance::PipelineInstance(Simulation* sim, int id, const PipelinePlan& plan,
                                   std::vector<GpuId> gpus, const CostModel* cost_model,
                                   const NetworkModel* network, const InstanceConfig& config)
    : sim_(sim),
      id_(id),
      plan_(plan),
      gpus_(std::move(gpus)),
      cost_model_(cost_model),
      network_(network),
      config_(config),
      kv_(plan.num_stages(),
          /*per_stage_budget=*/
          static_cast<Bytes>(
              static_cast<double>(config.gpu_memory - plan.MaxStageParams()) *
              cost_model->config().kv_memory_fraction),
          /*kv_bytes_per_token_per_stage=*/
          cost_model->KvBytesPerToken(plan.spec, 1.0 / std::max(1, plan.num_stages()))) {
  FLEXPIPE_CHECK(sim_ != nullptr && cost_model_ != nullptr && network_ != nullptr);
  FLEXPIPE_CHECK(plan_.num_stages() >= 1 && config_.per_group_capacity >= 1);
  FLEXPIPE_CHECK_MSG(static_cast<int>(gpus_.size()) == plan_.num_stages(),
                     "one GPU per pipeline stage");
  FLEXPIPE_CHECK_MSG(plan_.MaxStageParams() <= config_.gpu_memory,
                     "stage parameters exceed GPU memory");

  const ModelSpec& spec = plan_.spec;
  TimeNs decode_full = cost_model_->FullModelComputeTime(spec, Phase::kDecode, 1, 1);
  TimeNs total_compute = plan_.TotalCompute();
  TimeNs overhead = FromMillis(cost_model_->config().per_stage_overhead_ms);

  stages_.resize(static_cast<size_t>(plan_.num_stages()));
  clocks_.resize(stages_.size());
  for (int s = 0; s < plan_.num_stages(); ++s) {
    const StagePlan& sp = plan_.stages[static_cast<size_t>(s)];
    StageConfig& rt = stages_[static_cast<size_t>(s)];
    rt.gpu = gpus_[static_cast<size_t>(s)];
    rt.server = network_->cluster()->ServerOf(rt.gpu);
    rt.overhead = overhead;
    rt.prefill_per_token = sp.compute_time / std::max(1, spec.context_window);
    double share = total_compute > 0
                       ? static_cast<double>(sp.compute_time) / static_cast<double>(total_compute)
                       : 1.0 / plan_.num_stages();
    rt.decode_base = static_cast<TimeNs>(static_cast<double>(decode_full) * share);
    rt.prefill_act_per_token = sp.output_activation_bytes / std::max(1, spec.context_window);
    rt.decode_act_per_req = cost_model_->DecodeActivationBytes(spec, 1);
    if (s + 1 < plan_.num_stages()) {
      LinkTier tier = network_->TierBetween(rt.gpu, gpus_[static_cast<size_t>(s + 1)]);
      rt.comm_latency = network_->Latency(tier);
      rt.comm_bandwidth = network_->Bandwidth(tier);
      rt.next_server = network_->cluster()->ServerOf(gpus_[static_cast<size_t>(s + 1)]);
      rt.comm_nic = tier == LinkTier::kIntraRack || tier == LinkTier::kInterRack;
    }
  }
  const size_t rows = static_cast<size_t>(config_.per_group_capacity) + 1;
  decode_rows_.resize(rows * stages_.size());
  for (size_t b = 0; b < rows; ++b) {
    FillRow(0, static_cast<int>(b), &decode_rows_[b * stages_.size()]);
  }
  scratch_row_.resize(stages_.size());
  groups_.resize(config_.pipelined ? static_cast<size_t>(plan_.num_stages()) : 1);
}

void PipelineInstance::BeginLoading(const std::vector<bool>& warm_stages, double load_slowdown) {
  FLEXPIPE_CHECK(state_ == InstanceState::kLoading);
  FLEXPIPE_CHECK(warm_stages.empty() ||
                 warm_stages.size() == static_cast<size_t>(plan_.num_stages()));
  FLEXPIPE_CHECK(load_slowdown > 0.0);  // > 1 = contention, < 1 = accelerated loader
  const Cluster* cluster = network_->cluster();
  const bool degraded = cluster->AnyDegraded();
  TimeNs worst = 0;
  for (int s = 0; s < plan_.num_stages(); ++s) {
    Bytes params = plan_.stages[static_cast<size_t>(s)].param_bytes;
    bool warm = !warm_stages.empty() && warm_stages[static_cast<size_t>(s)];
    TimeNs t = warm ? cost_model_->WarmLoadTime(params, network_->config().pcie_bandwidth)
                    : cost_model_->ColdLoadTime(params);
    // Fail-slow link degradation stretches parameter ingest — storage fetch and host
    // copy both cross the server's sick I/O path (same factor RestartStuckLoaders
    // prices into its fresh-load estimate, so a merely-slow load is not "stuck").
    if (degraded) {
      double link = cluster->ServerLinkFactor(stages_[static_cast<size_t>(s)].server);
      if (link != 1.0) {
        t = static_cast<TimeNs>(static_cast<double>(t) / link);
      }
    }
    worst = std::max(worst, static_cast<TimeNs>(static_cast<double>(t) * load_slowdown));
  }
  load_finish_time_ = sim_->now() + worst;
  sim_->Schedule(worst, [this] {
    if (state_ == InstanceState::kLoading) {
      ActivateNow();
    }
  });
}

void PipelineInstance::ActivateNow() {
  FLEXPIPE_CHECK(state_ == InstanceState::kLoading);
  state_ = InstanceState::kActive;
  last_all_idle_ = sim_->now();
  for (StageClock& clock : clocks_) {
    clock.busy_until = sim_->now();
  }
  for (const auto& callback : on_activate_) {
    callback();
  }
  PumpGroups();
}

std::vector<Request*> PipelineInstance::CurrentDecoding() const {
  std::vector<Request*> out;
  for (const Group& g : groups_) {
    for (Request* r : g.decoding) {
      out.push_back(r);
    }
  }
  return out;
}

bool PipelineInstance::CanAdmit(const Request& request) const {
  if (admissions_closed_) {
    return false;
  }
  if (state_ != InstanceState::kLoading && state_ != InstanceState::kActive) {
    return false;
  }
  if (inflight_ + pending() >= capacity()) {
    return false;
  }
  return kv_.Fits(request.spec.prompt_tokens + request.spec.output_tokens);
}

void PipelineInstance::Admit(Request* request) {
  FLEXPIPE_CHECK(request != nullptr);
  FLEXPIPE_CHECK_MSG(CanAdmit(*request), "Admit called without CanAdmit");
  kv_.Admit(request->spec.id, request->spec.prompt_tokens + request->spec.output_tokens);
  request->phase = RequestPhase::kQueued;
  pending_.push_back(request);
  if (state_ == InstanceState::kActive &&
      busy_groups_ < static_cast<int>(groups_.size())) {
    // Only distribute the new pending work: while active, a non-busy group with decode
    // work left cannot exist outside FinishIteration (which restarts itself), so once
    // `pending_` drains — or when every group is mid-wave — the TryStarts are no-ops.
    for (size_t g = 0; g < groups_.size() && !pending_.empty(); ++g) {
      TryStart(g);
    }
  }
}

void PipelineInstance::InjectDecoding(Request* request) {
  FLEXPIPE_CHECK(request != nullptr);
  FLEXPIPE_CHECK(request->phase == RequestPhase::kDecoding);
  FLEXPIPE_CHECK(state_ == InstanceState::kLoading || state_ == InstanceState::kActive);
  kv_.Admit(request->spec.id, request->spec.prompt_tokens + request->spec.output_tokens);
  // Join the lightest group.
  size_t best = 0;
  for (size_t g = 1; g < groups_.size(); ++g) {
    if (groups_[g].decoding.size() + groups_[g].prefilling.size() <
        groups_[best].decoding.size() + groups_[best].prefilling.size()) {
      best = g;
    }
  }
  groups_[best].decoding.push_back(request);
  ++inflight_;
  if (state_ == InstanceState::kActive) {
    TryStart(best);  // only the joined group gained work
  }
}

double PipelineInstance::LoadFraction() const {
  return static_cast<double>(inflight_ + pending()) / std::max(1, capacity());
}

void PipelineInstance::StartDraining(std::function<void()> on_drained) {
  FLEXPIPE_CHECK(state_ == InstanceState::kActive || state_ == InstanceState::kLoading);
  state_ = InstanceState::kDraining;
  on_drained_ = std::move(on_drained);
  CheckHaltAndDrain();
}

void PipelineInstance::HaltAndExtract(HaltCallback cb) {
  FLEXPIPE_CHECK(state_ != InstanceState::kReleased);
  state_ = InstanceState::kHalting;
  on_halt_ = std::move(cb);
  CheckHaltAndDrain();
}

bool PipelineInstance::AnyGroupBusy() const { return busy_groups_ > 0; }

void PipelineInstance::CheckHaltAndDrain() {
  if (state_ == InstanceState::kHalting && !AnyGroupBusy() && on_halt_) {
    std::vector<Request*> extracted;
    for (Request* r : pending_) {
      r->phase = RequestPhase::kQueued;
      extracted.push_back(r);
    }
    pending_.clear();
    for (Group& g : groups_) {
      for (Request* r : g.prefilling) {
        // Prompt pass never ran (or its KV dies with this instance); redo elsewhere.
        r->phase = RequestPhase::kQueued;
        extracted.push_back(r);
      }
      for (Request* r : g.decoding) {
        extracted.push_back(r);  // keeps kDecoding + generated tokens; KV migrates
      }
      g.prefilling.clear();
      g.decoding.clear();
    }
    kv_.Clear();
    inflight_ = 0;
    HaltCallback cb = std::move(on_halt_);
    on_halt_ = nullptr;
    cb(std::move(extracted));
    return;
  }
  if (state_ == InstanceState::kDraining && inflight_ == 0 && pending_.empty() && on_drained_) {
    std::function<void()> cb = std::move(on_drained_);
    on_drained_ = nullptr;
    cb();
  }
}

std::vector<Request*> PipelineInstance::FailNow() {
  FLEXPIPE_CHECK(state_ != InstanceState::kReleased);
  // Cancel in-flight waves: their FinishIteration must never run against a dead
  // instance. (The BeginLoading activation event guards on kLoading itself.)
  for (Group& g : groups_) {
    if (g.busy) {
      sim_->Cancel(g.wave_event);
      g.busy = false;
      g.wave_event = 0;
    }
  }
  busy_groups_ = 0;
  state_ = InstanceState::kHalting;  // blocks admissions until the caller releases us
  on_halt_ = nullptr;
  on_drained_ = nullptr;

  std::vector<Request*> extracted;
  for (Request* r : pending_) {
    r->phase = RequestPhase::kQueued;
    extracted.push_back(r);
  }
  pending_.clear();
  for (Group& g : groups_) {
    for (Request* r : g.prefilling) {
      r->phase = RequestPhase::kQueued;
      extracted.push_back(r);
    }
    for (Request* r : g.wave_prefilling) {
      // The wave died mid-prompt-pass; nothing of it survives.
      r->phase = RequestPhase::kQueued;
      extracted.push_back(r);
    }
    for (Request* r : g.decoding) {
      extracted.push_back(r);  // stays kDecoding; caller picks recompute vs restart
    }
    g.prefilling.clear();
    g.wave_prefilling.clear();
    g.decoding.clear();
    g.wave_decode_count = 0;
  }
  kv_.Clear();
  inflight_ = 0;
  return extracted;
}

TimeNs PipelineInstance::StageIterationTime(size_t stage, int prefill_tokens,
                                            int decode_batch) const {
  const StageConfig& cfg = stages_[stage];
  TimeNs t = cfg.overhead;
  if (prefill_tokens > 0) {
    t += cfg.prefill_per_token * prefill_tokens;
  }
  if (decode_batch > 0) {
    double slope = cost_model_->config().decode_batch_slope;
    t += static_cast<TimeNs>(static_cast<double>(cfg.decode_base) *
                             (1.0 + slope * static_cast<double>(decode_batch - 1)));
  }
  return static_cast<TimeNs>(static_cast<double>(t) * config_.compute_dilation);
}

TimeNs PipelineInstance::StageCommTime(size_t stage, int prefill_tokens,
                                       int decode_batch) const {
  const StageConfig& cfg = stages_[stage];
  Bytes bytes = cfg.prefill_act_per_token * prefill_tokens +
                cfg.decode_act_per_req * decode_batch;
  return cfg.comm_latency + TransferTime(bytes, cfg.comm_bandwidth);
}

void PipelineInstance::FillRow(int prefill_tokens, int decode_batch, StageTiming* row) const {
  for (size_t s = 0; s < stages_.size(); ++s) {
    row[s].compute = StageIterationTime(s, prefill_tokens, decode_batch);
    row[s].comm = s + 1 < stages_.size() ? StageCommTime(s, prefill_tokens, decode_batch) : 0;
  }
}

void PipelineInstance::AdmitFromPending(Group& group) {
  int budget_requests = kMaxPrefillRequestsPerIteration;
  int budget_tokens = kPrefillTokenBudgetPerIteration;
  size_t group_cap = static_cast<size_t>(config_.per_group_capacity);
  bool admitted_any = false;
  while (!pending_.empty() && budget_requests > 0 &&
         group.decoding.size() + group.prefilling.size() < group_cap) {
    Request* r = pending_.front();
    // The budget caps prompt work per iteration, but one request always gets through so
    // prompts longer than the budget cannot be starved.
    int prompt_cost = r->spec.prompt_tokens + r->recompute_tokens;
    if (admitted_any && prompt_cost > budget_tokens) {
      break;
    }
    pending_.pop_front();
    budget_tokens -= prompt_cost;
    --budget_requests;
    r->phase = RequestPhase::kPrefilling;
    group.prefilling.push_back(r);
    ++inflight_;
    admitted_any = true;
  }
}

void PipelineInstance::PumpGroups() {
  for (size_t g = 0; g < groups_.size(); ++g) {
    TryStart(g);
  }
}

void PipelineInstance::TryStart(size_t group_index) {
  if (state_ != InstanceState::kActive && state_ != InstanceState::kDraining) {
    return;
  }
  Group& group = groups_[group_index];
  if (group.busy) {
    return;
  }
  AdmitFromPending(group);
  if (group.decoding.empty() && group.prefilling.empty()) {
    return;
  }
  group.busy = true;
  ++busy_groups_;

  // Take the wave's prompt batch (recycled buffer: the swap hands back the vector the
  // previous wave released) and pin the decode batch as a prefix of `decoding` — see
  // the Group comment for why appends cannot disturb it.
  group.wave_prefilling.swap(group.prefilling);
  group.wave_decode_count = group.decoding.size();

  int prefill_tokens = 0;
  for (const Request* r : group.wave_prefilling) {
    // recompute_tokens is the KV-rebuild tail of a failure-recovered request: tokens it
    // already generated whose KV died with the old instance (0 outside recovery).
    prefill_tokens += r->spec.prompt_tokens + r->recompute_tokens;
  }
  int decode_batch = static_cast<int>(group.wave_decode_count);

  // Pure-decode waves read their row of the table; any other wave shape gets its row
  // computed into the scratch row first.
  const StageTiming* row;
  if (prefill_tokens == 0 && decode_batch <= config_.per_group_capacity) {
    row = DecodeRow(decode_batch);
  } else {
    FillRow(prefill_tokens, decode_batch, scratch_row_.data());
    row = scratch_row_.data();
  }

  TimeNs t = sim_->now();
  const TimeNs start0 = std::max(t, clocks_[0].busy_until);
  TimeNs exec_total = 0;
  TimeNs comm_total = 0;
  // Stall cycles (§3.3): stage idle gaps count as stalls only while a backlog exists —
  // bubbles with work waiting are lost capacity; bubbles without backlog are just the
  // pipeline's natural fill/drain behaviour.
  const bool backlog = !pending_.empty();
  // Fail-slow degradation is applied here, never baked into the rows: the rows keep the
  // healthy profile (what the controller believes) and a degraded server stretches each
  // wave as it runs, so a throttle that clears stops being priced on the very next wave.
  const Cluster* cluster = network_->cluster();
  const bool degraded = cluster->AnyDegraded();
  for (size_t s = 0; s < clocks_.size(); ++s) {
    StageClock& clock = clocks_[s];
    const TimeNs start = std::max(t, clock.busy_until);
    if (backlog && start > clock.busy_until && clock.busy_until >= last_all_idle_) {
      clock.stall_accum += start - clock.busy_until;
    }
    TimeNs st = row[s].compute;
    TimeNs c = row[s].comm;
    clock.base_accum += st;
    if (degraded) {
      const StageConfig& cfg = stages_[s];
      double perf = cluster->ServerPerf(cfg.server);
      if (perf != 1.0) {
        st = static_cast<TimeNs>(static_cast<double>(st) / perf);
      }
      if (cfg.comm_nic) {
        double link = std::min(cluster->ServerLinkFactor(cfg.server),
                               cluster->ServerLinkFactor(cfg.next_server));
        if (link != 1.0) {
          TimeNs healthy_c = c;
          c = static_cast<TimeNs>(static_cast<double>(c) / link);
          // The stretch is charged to this stage's *observed* busy time (its NIC is the
          // bottleneck) and never to the base, so the health monitor's observed/base
          // ratio sees sick links as well as sick SMs.
          clock.busy_accum += c - healthy_c;
        }
      }
    }
    clock.busy_until = start + st;
    clock.busy_accum += st;
    exec_total += st;
    comm_total += c;
    t = start + st + c;
  }

  for (Request* r : group.wave_prefilling) {
    if (r->first_exec_start < 0) {
      r->first_exec_start = start0;
    }
    r->exec_ns += exec_total;
    r->comm_ns += comm_total;
  }
  for (Request* r : group.decoding) {
    r->exec_ns += exec_total;
    r->comm_ns += comm_total;
  }
  ++stats_.iterations;

  // The capture fits std::function's inline buffer: scheduling a wave allocates nothing.
  group.wave_event =
      sim_->Schedule(t - sim_->now(), [this, group_index] { FinishIteration(group_index); });
}

void PipelineInstance::CompleteRequest(Request* request) {
  request->phase = RequestPhase::kDone;
  request->done_time = sim_->now();
  kv_.Remove(request->spec.id);
  ++stats_.requests_completed;
  --inflight_;
  if (on_complete_) {
    on_complete_(request);
  }
}

void PipelineInstance::FinishIteration(size_t group_index) {
  Group& group = groups_[group_index];
  group.busy = false;
  group.wave_event = 0;
  --busy_groups_;
  TimeNs now = sim_->now();

  // The wave's decode batch is the first `wave_decode_count` entries; everything after
  // (mid-wave injections, then the prompts promoted below) did not advance this wave.
  const size_t advanced = group.wave_decode_count;
  const int64_t completed_before = stats_.requests_completed;

  for (Request* r : group.wave_prefilling) {
    r->phase = RequestPhase::kDecoding;
    // A recovered request (recompute_tokens > 0) keeps its original first-token time
    // and generated-token count: this prompt pass only rebuilt KV it had already
    // earned. On the normal path both fields are at their initial values, so these
    // writes are identical to the historical unconditional ones.
    if (r->first_token_time < 0) {
      r->first_token_time = now;
    }
    r->tokens_generated += 1;
    r->recompute_tokens = 0;
    ++stats_.prefills_completed;
    ++stats_.tokens_generated;
    if (r->remaining_tokens() <= 0) {
      CompleteRequest(r);
    } else {
      group.decoding.push_back(r);
    }
  }
  group.wave_prefilling.clear();

  // Compact in place: completed requests drop out, relative order is preserved.
  size_t write = 0;
  for (size_t i = 0; i < group.decoding.size(); ++i) {
    Request* r = group.decoding[i];
    if (i < advanced) {
      ++r->tokens_generated;
      ++stats_.tokens_generated;
      if (r->remaining_tokens() <= 0) {
        CompleteRequest(r);
        continue;
      }
    }
    group.decoding[write++] = r;
  }
  group.decoding.resize(write);

  NoteMaybeIdle();
  // Admissibility (capacity head-room, KV fit, load) only moves when a request
  // completed; a wave that merely advanced tokens cannot unblock the router queue, so
  // skip the (otherwise per-iteration) dispatch scan.
  if (stats_.requests_completed != completed_before && on_pump_) {
    on_pump_();
  }
  CheckHaltAndDrain();
  if (state_ == InstanceState::kActive || state_ == InstanceState::kDraining) {
    TryStart(group_index);
  }
  NoteMaybeIdle();
}

void PipelineInstance::NoteMaybeIdle() {
  if (inflight_ == 0 && pending_.empty()) {
    last_all_idle_ = sim_->now();
  }
}

TimeNs PipelineInstance::EstimateTraversal(int group_batch) const {
  FLEXPIPE_CHECK(group_batch >= 0 && group_batch <= config_.per_group_capacity);
  const StageTiming* row = DecodeRow(group_batch);
  TimeNs total = 0;
  for (size_t s = 0; s < stages_.size(); ++s) {
    total += row[s].compute + row[s].comm;
  }
  return total;
}

TimeNs PipelineInstance::EstimateCadence(int group_batch) const {
  FLEXPIPE_CHECK(group_batch >= 0 && group_batch <= config_.per_group_capacity);
  const StageTiming* row = DecodeRow(group_batch);
  TimeNs worst = 0;
  for (size_t s = 0; s < stages_.size(); ++s) {
    worst = std::max(worst, row[s].compute);
  }
  return worst;
}

TimeNs PipelineInstance::TotalStall() const {
  TimeNs total = 0;
  for (const StageClock& clock : clocks_) {
    total += clock.stall_accum;
  }
  return total;
}

TimeNs PipelineInstance::TotalBusy() const {
  TimeNs total = 0;
  for (const StageClock& clock : clocks_) {
    total += clock.busy_accum;
  }
  return total;
}

}  // namespace flexpipe
