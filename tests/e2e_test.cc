// End-to-end smoke tests: every serving system completes a small workload on the
// simulated cluster, and FlexPipe actually refactors under a CV shift.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "src/baselines/alpaserve.h"
#include "src/baselines/muxserve.h"
#include "src/baselines/serverless_llm.h"
#include "src/baselines/tetris.h"
#include "src/core/experiment.h"
#include "src/core/flexpipe_system.h"

namespace flexpipe {
namespace {

ExperimentEnvConfig SmallEnvConfig() {
  ExperimentEnvConfig config;
  config.models = {Llama2_7B()};
  config.partitioner.ladder = {2, 4, 8, 16};
  config.seed = 7;
  return config;
}

std::vector<RequestSpec> SmallWorkload(double rate, double cv, TimeNs duration,
                                       uint64_t seed = 3) {
  WorkloadGenerator::Config wconfig;
  wconfig.lengths.prompt_median = 256;
  wconfig.lengths.output_median = 16;
  WorkloadGenerator gen(wconfig);
  Rng rng(seed);
  return gen.GenerateWithCv(rng, rate, cv, duration);
}

TEST(EndToEnd, FlexPipeCompletesWorkload) {
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeConfig config;
  config.initial_stages = 4;
  config.target_peak_rps = 8.0;
  FlexPipeSystem system(env.Context(), &env.ladder(0), config);

  std::vector<RequestSpec> specs = SmallWorkload(4.0, 1.0, 60 * kSecond);
  VectorRequestStream stream(specs);
  StreamingRunReport report = RunStreamingWorkload(
      env, system, stream, RunOptions{.drain_grace = 120 * kSecond});

  EXPECT_GT(report.submitted, 100);
  // The vast majority of requests complete within the drain grace.
  EXPECT_GE(system.metrics().completed(), report.submitted * 9 / 10);
  EXPECT_GT(system.metrics().MeanLatencySec(), 0.0);
}

TEST(EndToEnd, AllBaselinesCompleteWorkload) {
  struct Case {
    const char* name;
    std::function<std::unique_ptr<ServingSystemBase>(ExperimentEnv&)> make;
  };
  std::vector<Case> cases;
  cases.push_back({"alpaserve", [](ExperimentEnv& env) -> std::unique_ptr<ServingSystemBase> {
                     AlpaServeConfig c;
                     c.stages = 4;
                     c.target_peak_rps = 6.0;
                     return std::make_unique<AlpaServeSystem>(env.Context(), &env.ladder(0), c);
                   }});
  cases.push_back({"muxserve", [](ExperimentEnv& env) -> std::unique_ptr<ServingSystemBase> {
                     MuxServeConfig c;
                     c.stages = 4;
                     c.target_peak_rps = 6.0;
                     return std::make_unique<MuxServeSystem>(env.Context(), &env.ladder(0), c);
                   }});
  cases.push_back({"serverlessllm",
                   [](ExperimentEnv& env) -> std::unique_ptr<ServingSystemBase> {
                     ServerlessLlmConfig c;
                     c.reactive.stages = 8;
                     c.reactive.min_replicas = 2;
                     return std::make_unique<ServerlessLlmSystem>(env.Context(), &env.ladder(0),
                                                                  c);
                   }});
  cases.push_back({"tetris", [](ExperimentEnv& env) -> std::unique_ptr<ServingSystemBase> {
                     TetrisConfig c;
                     c.reactive.stages = 4;
                     c.reactive.min_replicas = 2;
                     return std::make_unique<TetrisSystem>(env.Context(), &env.ladder(0), c);
                   }});

  for (auto& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    ExperimentEnv env(SmallEnvConfig());
    std::unique_ptr<ServingSystemBase> system = test_case.make(env);
    std::vector<RequestSpec> specs = SmallWorkload(3.0, 1.0, 45 * kSecond);
    VectorRequestStream stream(specs);
    StreamingRunReport report = RunStreamingWorkload(
        env, *system, stream, RunOptions{.drain_grace = 180 * kSecond});
    EXPECT_GT(report.submitted, 50);
    EXPECT_GE(system->metrics().completed(), report.submitted * 8 / 10)
        << "system " << test_case.name << " completed too few";
  }
}

TEST(EndToEnd, FlexPipeRefactorsUnderBurstyTraffic) {
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeConfig config;
  config.initial_stages = 4;
  config.target_peak_rps = 8.0;
  config.control_interval = 250 * kMillisecond;
  FlexPipeSystem system(env.Context(), &env.ladder(0), config);

  // Stable phase then a high-CV phase: the controller should move to finer stages.
  WorkloadGenerator gen;
  Rng rng(11);
  auto stable = gen.GenerateWithCv(rng, 4.0, 0.5, 40 * kSecond);
  auto bursty_raw = gen.GenerateWithCv(rng, 8.0, 6.0, 60 * kSecond);
  for (auto& spec : bursty_raw) {
    spec.arrival += 40 * kSecond;
  }
  auto specs = MergeWorkloads({stable, bursty_raw});

  VectorRequestStream stream(specs);
  RunStreamingWorkload(env, system, stream, RunOptions{.drain_grace = 120 * kSecond});

  EXPECT_GT(system.refactor_count(), 0) << "no inflight refactoring happened";
  EXPECT_GT(system.current_stages(), 4) << "granularity did not move finer under burst";
  EXPECT_GE(system.metrics().completed(), static_cast<int64_t>(specs.size()) * 8 / 10);
}

TEST(EndToEnd, IdenticallySeededRunsAreBitIdentical) {
  // The simulation.h ordering guarantee (events fire in (time, scheduling order)) makes
  // whole experiment runs reproducible: two identically-seeded runs must agree on every
  // metric bit-for-bit, not merely to within a tolerance.
  struct RunSignature {
    int64_t submitted = 0;
    int64_t completed = 0;
    uint64_t executed_events = 0;
    double mean_latency_s = 0.0;
    double p99_latency_s = 0.0;
    double mean_prefill_s = 0.0;
    double goodput_rate = 0.0;
    std::vector<CompletionSample> completions;
  };
  auto run_once = [] {
    ExperimentEnv env(SmallEnvConfig());
    FlexPipeConfig config;
    config.initial_stages = 4;
    config.target_peak_rps = 8.0;
    config.control_interval = 250 * kMillisecond;
    FlexPipeSystem system(env.Context(), &env.ladder(0), config);
    std::vector<RequestSpec> specs = SmallWorkload(6.0, 4.0, 60 * kSecond);
    VectorRequestStream stream(specs);
    StreamingRunReport report = RunStreamingWorkload(
        env, system, stream, RunOptions{.drain_grace = 120 * kSecond});
    RunSignature sig;
    sig.submitted = report.submitted;
    sig.completed = system.metrics().completed();
    sig.executed_events = env.sim().executed_events();
    sig.mean_latency_s = system.metrics().MeanLatencySec();
    sig.p99_latency_s = system.metrics().LatencyPercentileSec(99);
    sig.mean_prefill_s = system.metrics().MeanPrefillSec();
    sig.goodput_rate = system.metrics().GoodputRate(report.submitted);
    sig.completions = system.metrics().completions();
    return sig;
  };

  RunSignature a = run_once();
  RunSignature b = run_once();
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);  // bit-identical, no tolerance
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.mean_prefill_s, b.mean_prefill_s);
  EXPECT_EQ(a.goodput_rate, b.goodput_rate);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].done_time, b.completions[i].done_time) << "sample " << i;
    EXPECT_EQ(a.completions[i].latency, b.completions[i].latency) << "sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Golden determinism: reduced fig9/fig13 scenarios with signatures recorded on the
// pre-arena priority_queue+unordered_map engine. The arena rewrite must preserve the
// (time, scheduling order) contract, so every metric — including the FNV-1a hash over
// each completion's (done_time, latency) pair — must stay bit-identical.
//
// Regenerate after an *intentional* behavior change (or on a toolchain whose libm
// rounds differently) with: FLEXPIPE_PRINT_GOLDEN=1 ./e2e_test
// and paste the printed literals below.
// ---------------------------------------------------------------------------

struct GoldenSignature {
  int64_t submitted = 0;
  int64_t completed = 0;
  uint64_t executed_events = 0;
  uint64_t completion_hash = 0;  // FNV-1a over (done_time, latency) in completion order
  uint64_t mean_latency_bits = 0;   // bit pattern of MeanLatencySec()
  uint64_t mean_prefill_bits = 0;   // bit pattern of MeanPrefillSec()
};

uint64_t Fnv1aMix(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

GoldenSignature SignatureOf(ExperimentEnv& env, const FlexPipeSystem& system,
                            const StreamingRunReport& report) {
  GoldenSignature sig;
  sig.submitted = report.submitted;
  sig.completed = system.metrics().completed();
  // Net of the periodic auditor's own events so the golden values hold verbatim in
  // FLEXPIPE_AUDIT builds too — audits are read-only, so everything else is identical.
  sig.executed_events =
      env.sim().executed_events() - static_cast<uint64_t>(report.audit_events);
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  for (const CompletionSample& s : system.metrics().completions()) {
    hash = Fnv1aMix(hash, static_cast<uint64_t>(s.done_time));
    hash = Fnv1aMix(hash, static_cast<uint64_t>(s.latency));
  }
  sig.completion_hash = hash;
  sig.mean_latency_bits = DoubleBits(system.metrics().MeanLatencySec());
  sig.mean_prefill_bits = DoubleBits(system.metrics().MeanPrefillSec());
  return sig;
}

void CheckGolden(const char* name, const GoldenSignature& actual,
                 const GoldenSignature& golden) {
  if (std::getenv("FLEXPIPE_PRINT_GOLDEN") != nullptr) {
    std::printf("golden %s = {%" PRId64 ", %" PRId64 ", %" PRIu64 "ull, %" PRIu64
                "ull, %" PRIu64 "ull, %" PRIu64 "ull};\n",
                name, actual.submitted, actual.completed, actual.executed_events,
                actual.completion_hash, actual.mean_latency_bits, actual.mean_prefill_bits);
    return;
  }
  EXPECT_EQ(actual.submitted, golden.submitted) << name;
  EXPECT_EQ(actual.completed, golden.completed) << name;
  EXPECT_EQ(actual.executed_events, golden.executed_events) << name;
  EXPECT_EQ(actual.completion_hash, golden.completion_hash) << name;
  EXPECT_EQ(actual.mean_latency_bits, golden.mean_latency_bits) << name;
  EXPECT_EQ(actual.mean_prefill_bits, golden.mean_prefill_bits) << name;
}

// Mirrors bench/common.h's DefaultWorkloadConfig (§9 Splitwise-like lengths).
WorkloadGenerator::Config BenchWorkloadConfig() {
  WorkloadGenerator::Config config;
  config.slo = 10 * kSecond;
  config.lengths.prompt_median = 512;
  config.lengths.prompt_sigma = 0.9;
  config.lengths.prompt_max = 4096;
  config.lengths.output_median = 24;
  config.lengths.output_sigma = 0.7;
  config.lengths.output_max = 256;
  return config;
}

TEST(EngineGolden, Fig9ScenarioIsBitIdentical) {
  // The FlexPipe cell of fig9 (CV=8 burst absorption, OPT-66B on the 82-GPU eval
  // cluster) at one fifth of the bench duration.
  ExperimentEnvConfig env_config;  // defaults: OPT-66B, eval cluster, seed 42
  ExperimentEnv env(env_config);
  FlexPipeConfig config;
  config.initial_stages = env.ladder(0).coarsest();
  config.target_peak_rps = 20.0;
  config.default_slo = 10 * kSecond;
  config.scaling.reclaim_idle = 45 * kSecond;
  FlexPipeSystem system(env.Context(), &env.ladder(0), config);

  WorkloadGenerator gen(BenchWorkloadConfig());
  Rng rng(Rng(42).Child("workload").seed());
  auto specs = gen.GenerateWithCv(rng, 20.0, 8.0, 60 * kSecond);
  VectorRequestStream stream(specs);
  StreamingRunReport report = RunStreamingWorkload(
      env, system, stream, RunOptions{.drain_grace = 60 * kSecond, .warmup = 90 * kSecond});

  const GoldenSignature kFig9Golden = {1373, 1373, 6998ull, 15106322800334033574ull,
                                       4617917881311703691ull, 4611023934549111266ull};
  CheckGolden("kFig9Golden", SignatureOf(env, system, report), kFig9Golden);
}

TEST(EngineGolden, Fig13ScenarioIsBitIdentical) {
  // The OPT-66B FlexPipe cell of fig13 sequential mode (production-like CV=2 trace,
  // env seed kSeed + model index 3) at one quarter of the bench duration.
  ExperimentEnvConfig env_config;
  env_config.seed = 45;
  ExperimentEnv env(env_config);
  FlexPipeConfig config;
  config.initial_stages = env.ladder(0).coarsest();
  config.target_peak_rps = 10.0;
  config.default_slo = 10 * kSecond;
  config.scaling.reclaim_idle = 45 * kSecond;
  FlexPipeSystem system(env.Context(), &env.ladder(0), config);

  WorkloadGenerator::Config wconfig = BenchWorkloadConfig();
  wconfig.lengths.prompt_max = Opt66B().context_window;
  WorkloadGenerator gen(wconfig);
  Rng rng(Rng(42).Child("OPT-66B").seed());
  auto specs = gen.GenerateWithCv(rng, 10.0, 2.0, 60 * kSecond);
  VectorRequestStream stream(specs);
  StreamingRunReport report = RunStreamingWorkload(
      env, system, stream, RunOptions{.drain_grace = 60 * kSecond, .warmup = 90 * kSecond});

  const GoldenSignature kFig13Golden = {594, 594, 4448ull, 3550150937863148032ull,
                                        4612433669895666873ull, 4597110502577874036ull};
  CheckGolden("kFig13Golden", SignatureOf(env, system, report), kFig13Golden);
}

TEST(EndToEnd, StreamingRunCompletesAndRecyclesRequests) {
  // The streaming runner must complete a workload end-to-end while keeping request
  // storage and the event arena proportional to in-flight work, not trace length.
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeConfig config;
  config.initial_stages = 4;
  config.target_peak_rps = 8.0;
  FlexPipeSystem system(env.Context(), &env.ladder(0), config);

  WorkloadGenerator::Config wconfig;
  wconfig.lengths.prompt_median = 256;
  wconfig.lengths.output_median = 16;
  StreamingWorkloadSource stream =
      StreamingWorkloadSource::WithCv(wconfig, 4.0, 1.0, 120 * kSecond, Rng(3));
  StreamingRunReport report = RunStreamingWorkload(
      env, system, stream, RunOptions{.drain_grace = 120 * kSecond});

  EXPECT_GT(report.submitted, 300);
  EXPECT_GE(system.metrics().completed(), report.submitted * 9 / 10);
  EXPECT_GT(system.metrics().MeanLatencySec(), 0.0);
  // Recycling caps live requests far below the trace length.
  EXPECT_LT(report.peak_live_requests, static_cast<size_t>(report.submitted) / 2);
  // Exactly one arrival event exists at a time, so the arena's high-water mark tracks
  // simulation fan-out (instances, controllers), not the trace.
  EXPECT_LT(env.sim().arena_slots(), static_cast<size_t>(report.submitted));
}

TEST(EndToEnd, StreamingRunsAreBitIdentical) {
  auto run_once = [] {
    ExperimentEnv env(SmallEnvConfig());
    FlexPipeConfig config;
    config.initial_stages = 4;
    config.target_peak_rps = 8.0;
    config.control_interval = 250 * kMillisecond;
    FlexPipeSystem system(env.Context(), &env.ladder(0), config);
    WorkloadGenerator::Config wconfig;
    wconfig.lengths.prompt_median = 256;
    wconfig.lengths.output_median = 16;
    StreamingWorkloadSource stream =
        StreamingWorkloadSource::WithCv(wconfig, 6.0, 4.0, 60 * kSecond, Rng(3));
    StreamingRunReport report = RunStreamingWorkload(
        env, system, stream, RunOptions{.drain_grace = 120 * kSecond});
    struct Signature {
      int64_t submitted;
      int64_t completed;
      uint64_t executed;
      size_t peak_live;
      double mean_latency_s;
      std::vector<CompletionSample> completions;
    };
    return Signature{report.submitted, system.metrics().completed(),
                     env.sim().executed_events(), report.peak_live_requests,
                     system.metrics().MeanLatencySec(), system.metrics().completions()};
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.peak_live, b.peak_live);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].done_time, b.completions[i].done_time) << i;
    EXPECT_EQ(a.completions[i].latency, b.completions[i].latency) << i;
  }
}

TEST(EndToEnd, MigrationPreservesTokenProgress) {
  // Every request must produce exactly its requested token count even across refactors;
  // the per-request checks live in MetricsCollector::OnComplete.
  ExperimentEnv env(SmallEnvConfig());
  FlexPipeConfig config;
  config.initial_stages = 4;
  config.target_peak_rps = 8.0;
  config.control_interval = 250 * kMillisecond;
  FlexPipeSystem system(env.Context(), &env.ladder(0), config);

  // A stable phase long enough to settle, then a burst long enough to trigger a refactor
  // while requests are mid-decode.
  WorkloadGenerator gen;
  Rng rng(5);
  auto stable = gen.GenerateWithCv(rng, 4.0, 0.5, 40 * kSecond);
  auto bursty = gen.GenerateWithCv(rng, 8.0, 6.0, 60 * kSecond);
  for (auto& spec : bursty) {
    spec.arrival += 40 * kSecond;
  }
  auto specs = MergeWorkloads({stable, bursty});
  VectorRequestStream stream(specs);
  RunStreamingWorkload(env, system, stream, RunOptions{.drain_grace = 180 * kSecond});

  EXPECT_GT(system.refactor_count(), 0) << "no refactor: nothing migrated";
  EXPECT_GT(system.kv_migrated_bytes(), 0) << "the refactor carried no decoding request";
  // MetricsCollector::OnComplete checks every completion's token count and timestamps,
  // so reaching here means every completed request kept its progress.
  EXPECT_GE(system.metrics().completed(), static_cast<int64_t>(specs.size()) * 8 / 10);
}

}  // namespace
}  // namespace flexpipe
