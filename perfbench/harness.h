// One replica of the FlexPipe simulator benchmark, measured from outside.
//
// A replica builds a workload's inputs from a seed, serves them with FlexPipeSystem
// through WorkloadHarness on the 1024-GPU fragmented cluster, drains, checks the
// outputs and returns every measured number. The library is never edited for the
// benchmark; each layer is observed through its public surface:
//   - spans: host-time clocks around the calls the benchmark makes into a module
//     (the stream decorator, the OnArrival/Start overrides, the GPU-loss listener);
//   - counts: public getters read after the drain;
//   - a sampler: a read-only 1 s virtual-time PeriodicTask (traced runs only).
// Untraced runs only stamp Start() and the first arrival, so their host numbers time
// the program itself. A traced run must reproduce the untraced run's simulated
// results exactly; run.py checks this.
#ifndef FLEXPIPE_PERFBENCH_HARNESS_H_
#define FLEXPIPE_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/core/experiment.h"
#include "src/core/flexpipe_system.h"
#include "src/sim/faults.h"
#include "src/trace/streaming.h"

namespace perfbench {

using flexpipe::TimeNs;

enum class Workload { kSteadyMix, kBurstyMix, kFaultStorm };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);
std::vector<Workload> AllWorkloads();

// The shape of one workload; MakeEnvConfig, MakeStream and MakeFaultPlan draw its
// inputs from a seed.
struct WorkloadParams {
  std::vector<double> qps;  // per flexpipe::EvaluationModels() entry
  double cv = 1.0;          // arrival coefficient of variation (1 = Poisson)
  bool faults = false;      // arm the fault_storm FaultPlan
};
WorkloadParams ParamsFor(Workload workload);

// Simulated start of arrivals: the initial fleet deploys and loads before traffic.
inline constexpr TimeNs kWarmup = 90 * flexpipe::kSecond;
// Arrivals run for this long after the warmup, then the fleet drains.
inline constexpr TimeNs kArrivalWindow = 180 * flexpipe::kSecond;
// Long enough for every request to finish: the slowest seen completed ~220 s after it
// arrived, and the repo's storm benches drain for 900 s for the same reason.
inline constexpr TimeNs kDrainGrace = 600 * flexpipe::kSecond;
inline constexpr TimeNs kSlo = 10 * flexpipe::kSecond;
inline constexpr TimeNs kSampleInterval = 1 * flexpipe::kSecond;

// Accumulated host time and call count of one instrumented boundary.
struct Span {
  double seconds = 0.0;
  int64_t calls = 0;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of this process. The driver is single-threaded, so this is the host time
// the simulator spent, without the time the process sat descheduled on a shared box.
double CpuSeconds();

// A point in host time on both clocks.
struct Stamp {
  Clock::time_point wall{};
  double cpu = 0.0;
  static Stamp Now() { return {Clock::now(), CpuSeconds()}; }
};

// Times RequestStream::Next of the wrapped stream. With a null span it only forwards.
class TimedStream : public flexpipe::RequestStream {
 public:
  TimedStream(flexpipe::RequestStream* inner, Span* span) : inner_(inner), span_(span) {}
  bool Next(flexpipe::RequestSpec* out) override;
  TimeNs end_time() const override { return inner_->end_time(); }

 private:
  flexpipe::RequestStream* inner_;
  Span* span_;
};

// FlexPipeSystem with host-time probes on the two entry points the harness calls.
// Start() and the first OnArrival() are always stamped (they bound set-up time);
// every OnArrival is timed only when `arrival_span` is set.
class ProbedFlexPipe : public flexpipe::FlexPipeSystem {
 public:
  ProbedFlexPipe(const flexpipe::SystemContext& ctx,
                 std::vector<flexpipe::FlexPipeSystem::ModelDeployment> deployments,
                 Span* arrival_span)
      : FlexPipeSystem(ctx, std::move(deployments)), arrival_span_(arrival_span) {}

  void Start() override;
  void OnArrival(flexpipe::Request* request) override;

  bool saw_arrival() const { return saw_arrival_; }
  const Stamp& start_time() const { return start_time_; }
  const Stamp& first_arrival_time() const { return first_arrival_time_; }

 private:
  Span* arrival_span_;
  bool saw_arrival_ = false;
  Stamp start_time_;
  Stamp first_arrival_time_;
};

// The serving system every workload uses: one FlexPipe deployment per model, with
// health monitoring and mitigation on (flags stay exactly zero on healthy hardware)
// and reform recovery.
std::vector<flexpipe::FlexPipeSystem::ModelDeployment> MakeDeployments(
    flexpipe::ExperimentEnv& env, const std::vector<double>& qps);

flexpipe::ExperimentEnvConfig MakeEnvConfig(uint64_t seed);

// The fault_storm plan: a 0.12x throttle wave, fleet-churn kills and a rack
// partition that heals, with victims and spread drawn from `seed`.
flexpipe::FaultPlan MakeFaultPlan(const flexpipe::Cluster& cluster, uint64_t seed);

// The merged four-model arrival stream of `params`, seeded by `seed`.
flexpipe::MergedRequestStream MakeStream(const WorkloadParams& params, uint64_t seed);

// An ordered list of named numbers.
using Named = std::vector<std::pair<std::string, double>>;

// One replica: an independent universe (cluster, fleet, arrivals, faults) whose
// inputs all derive from the replica's seed.
struct RunResult {
  // Simulated results, deterministic at a seed and identical traced or not.
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t within_slo = 0;
  double stage_slot_seconds = 0.0;  // GpuSecondsReserved when the arrivals end
  flexpipe::Histogram latency;
  flexpipe::Histogram ttft;
  // Layer counts read from getters after the drain; deterministic.
  Named counts;
  // Read from the engine, or only measured in traced runs (span times and sampler
  // aggregates); not compared between traced and untraced runs.
  Named traced;
  // Host-side measurements of this run, in CPU seconds unless named *_wall_s.
  double setup_s = 0.0;         // workload start -> first injected arrival
  double run_s = 0.0;           // first arrival -> drained
  double env_s = 0.0;           // ExperimentEnv constructor
  double system_s = 0.0;        // FlexPipeSystem constructor
  double deploy_s = 0.0;        // Start() -> first arrival: deployment warmup
  double run_wall_s = 0.0;      // first arrival -> drained
  double harness_wall_s = 0.0;  // the whole WorkloadHarness::RunPhase call
  // Failed correctness checks, one line each; empty when the run is correct.
  std::vector<std::string> failures;

  // Every simulated result and count of this replica, for the bit-identity checks.
  Named Signature() const;
};

// Replicas per benchmark run: the run's seed derives one seed per replica, and the
// simulated metrics pool all of them, so a run measures more than one draw of the
// workload's randomness.
inline constexpr int kReplicas = 24;
uint64_t ReplicaSeed(uint64_t seed, int replica);

RunResult RunOnce(Workload workload, uint64_t seed, bool traced);

// The end-to-end simulated metrics over several replicas: latency and TTFT
// percentiles of the merged histograms, ratios of the summed counts.
Named PooledSimMetrics(const std::vector<RunResult>& replicas);

// CPU seconds of a fixed kernel that uses no simulator code: a binary heap churned
// with pseudo-random keys that index an 8 MiB table. Its time tracks how fast this
// machine runs heap- and cache-bound code at the moment; the driver runs it next to
// every replica, and host times are scaled by kCalibrationReferenceS over it.
double CalibrationSeconds();
// Host metrics read as if the machine ran the kernel in this time. A shared 4-vCPU
// Intel Xeon VM (GCC 12, Release) ran it in 26-49 ms, from quiet to busy.
inline constexpr double kCalibrationReferenceS = 0.05;

// Host time per event of an empty-callback engine storm shaped like a workload run:
// `slots` concurrently pending events (a far-future backlog plus self-rescheduling
// chains) and `events` executions, with a watchdog re-armed (Cancel + Schedule) every
// eighth step.
double EngineNsPerEvent(uint64_t events, uint64_t slots);

}  // namespace perfbench

#endif  // FLEXPIPE_PERFBENCH_HARNESS_H_
