#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/cluster/network.h"
#include "src/common/rng.h"
#include "src/cluster/topology.h"
#include "src/metrics/recovery.h"
#include "src/model/profiler.h"
#include "src/partition/partitioner.h"
#include "src/runtime/instance.h"
#include "src/runtime/kv_cache.h"
#include "src/runtime/router.h"
#include "src/runtime/transfer.h"

namespace flexpipe {
namespace {

// ---------- KV validity mask (Eq. 10) ----------

TEST(KvValidityMask, MarkAndCount) {
  KvValidityMask mask(100);
  EXPECT_EQ(mask.valid_count(), 0);
  mask.MarkValid(0, 60);
  EXPECT_EQ(mask.valid_count(), 60);
  EXPECT_TRUE(mask.IsValid(59));
  EXPECT_FALSE(mask.IsValid(60));
  EXPECT_EQ(mask.invalid_in(0, 100), 40);
  mask.MarkInvalid(10, 20);
  EXPECT_EQ(mask.valid_count(), 50);
  EXPECT_EQ(mask.invalid_in(0, 30), 10);
}

TEST(KvValidityMask, IdempotentMarks) {
  KvValidityMask mask(64);
  mask.MarkValid(0, 64);
  mask.MarkValid(0, 64);
  EXPECT_EQ(mask.valid_count(), 64);
}

TEST(KvValidityMask, InvalidRangeVisitorCoalescesRuns) {
  KvValidityMask mask(200);
  mask.MarkValid(0, 200);
  mask.MarkInvalid(10, 20);
  mask.MarkInvalid(63, 66);    // straddles a word boundary
  mask.MarkInvalid(190, 200);  // runs to the visited end
  std::vector<std::pair<int, int>> ranges;
  mask.ForEachInvalidRange(200, [&](int b, int e) { ranges.emplace_back(b, e); });
  EXPECT_EQ(ranges, (std::vector<std::pair<int, int>>{{10, 20}, {63, 66}, {190, 200}}));

  // Clipped visit: the trailing run must clip to `upto`.
  ranges.clear();
  mask.ForEachInvalidRange(195, [&](int b, int e) { ranges.emplace_back(b, e); });
  EXPECT_EQ(ranges.back(), (std::pair<int, int>{190, 195}));
}

TEST(KvValidityMask, WordOpsMatchNaiveBitReferenceRandomized) {
  Rng rng(818);
  for (int round = 0; round < 40; ++round) {
    int capacity = static_cast<int>(rng.UniformInt(1, 400));
    KvValidityMask mask(capacity);
    std::vector<bool> reference(static_cast<size_t>(capacity), false);
    for (int op = 0; op < 60; ++op) {
      int begin = static_cast<int>(rng.UniformInt(0, capacity));
      int end = static_cast<int>(rng.UniformInt(begin, capacity));
      bool valid = rng.Bernoulli(0.5);
      if (valid) {
        mask.MarkValid(begin, end);
      } else {
        mask.MarkInvalid(begin, end);
      }
      for (int t = begin; t < end; ++t) {
        reference[static_cast<size_t>(t)] = valid;
      }
    }
    int expected_valid = 0;
    std::vector<int> expected_invalid;
    for (int t = 0; t < capacity; ++t) {
      if (reference[static_cast<size_t>(t)]) {
        ++expected_valid;
        EXPECT_TRUE(mask.IsValid(t));
      } else {
        expected_invalid.push_back(t);
        EXPECT_FALSE(mask.IsValid(t));
      }
    }
    EXPECT_EQ(mask.valid_count(), expected_valid) << "round " << round;
    int qb = static_cast<int>(rng.UniformInt(0, capacity));
    int qe = static_cast<int>(rng.UniformInt(qb, capacity));
    int naive = 0;
    for (int t = qb; t < qe; ++t) {
      naive += reference[static_cast<size_t>(t)] ? 0 : 1;
    }
    EXPECT_EQ(mask.invalid_in(qb, qe), naive) << "round " << round;

    // Visitor ranges must tile exactly the invalid token set, in order.
    std::vector<int> visited;
    mask.ForEachInvalidRange(capacity, [&](int b, int e) {
      EXPECT_LT(b, e);
      EXPECT_TRUE(visited.empty() || visited.back() < b - 1);  // maximal runs only
      for (int t = b; t < e; ++t) {
        visited.push_back(t);
      }
    });
    EXPECT_EQ(visited, expected_invalid) << "round " << round;
  }
}

// ---------- KV tracker ----------

TEST(KvTracker, BudgetEnforcement) {
  KvTracker kv(4, /*per_stage_budget=*/1000, /*per_token_per_stage=*/10);
  EXPECT_TRUE(kv.Fits(100));
  kv.Admit(1, 60);
  EXPECT_EQ(kv.used_per_stage(), 600);
  EXPECT_TRUE(kv.Fits(40));
  EXPECT_FALSE(kv.Fits(41));
  kv.Admit(2, 40);
  EXPECT_FALSE(kv.Fits(1));
  kv.Remove(1);
  EXPECT_TRUE(kv.Fits(60));
  EXPECT_EQ(kv.resident_requests(), 1);
}

TEST(KvTracker, BytesAccounting) {
  KvTracker kv(8, 10000, 5);
  kv.Admit(7, 100);
  EXPECT_EQ(kv.TotalBytes(), 100 * 5 * 8);
  EXPECT_EQ(kv.BytesForTokens(10), 10 * 5 * 8);
  kv.Admit(9, 20);
  EXPECT_EQ(kv.TotalBytes(), 120 * 5 * 8);
  kv.Remove(7);
  EXPECT_EQ(kv.TotalBytes(), 20 * 5 * 8);
}

// ---------- Transfer engine ----------

class TransferTest : public ::testing::Test {
 protected:
  TransferTest() : cluster_(EvalClusterConfig()), network_(&cluster_, NetworkConfig{}) {}
  Simulation sim_;
  Cluster cluster_;
  NetworkModel network_;
};

TEST_F(TransferTest, AsyncCompletionWithFlowAccounting) {
  TransferEngine engine(&sim_, &network_);
  GpuId a = 0;
  GpuId b = cluster_.gpu_count() - 1;
  LinkTier tier = network_.TierBetween(a, b);
  bool done = false;
  TimeNs reported = 0;
  engine.Transfer(a, b, GiB(1), TransferProtocol::kRdma, [&](TimeNs d) {
    done = true;
    reported = d;
  });
  // The in-flight transfer holds a flow: a second one on the tier gets a fair half.
  EXPECT_EQ(network_.EffectiveBandwidth(tier), network_.Bandwidth(tier) / 2.0);
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_GT(reported, 0);
  EXPECT_EQ(network_.EffectiveBandwidth(tier), network_.Bandwidth(tier));
  EXPECT_EQ(engine.completed_transfers(), 1);
  EXPECT_EQ(engine.bytes_moved(), GiB(1));
}

TEST_F(TransferTest, NcclSetupDominatesSmallTransfers) {
  TransferEngine engine(&sim_, &network_);
  GpuId a = 0;
  GpuId b = cluster_.gpu_count() - 1;
  TimeNs rdma = engine.Estimate(a, b, MiB(1), TransferProtocol::kRdma);
  TimeNs nccl = engine.Estimate(a, b, MiB(1), TransferProtocol::kNcclStyle);
  EXPECT_GT(nccl, rdma * 50);  // why §8 avoids NCCL for KV migration
}

// ---------- Pipeline instance ----------

class InstanceTest : public ::testing::Test {
 protected:
  InstanceTest()
      : cluster_(EvalClusterConfig()),
        network_(&cluster_, NetworkConfig{}) {
    Profiler profiler(&cost_, Profiler::Config{});
    ComputationGraph graph = ComputationGraph::Build(Llama2_7B());
    profile_ = profiler.Profile(graph);
  }

  PipelinePlan MakePlan(int stages) {
    Partitioner partitioner;
    return partitioner.Partition(profile_, stages);
  }

  std::vector<GpuId> PickGpus(int n) {
    std::vector<GpuId> out;
    for (GpuId id = 0; id < n; ++id) {
      out.push_back(id);
    }
    return out;
  }

  // The first GPU of each of the first n servers: every hop crosses a NIC.
  std::vector<GpuId> OneGpuPerServer(int n) {
    std::vector<GpuId> out;
    for (GpuId id = 0; id < cluster_.gpu_count() && static_cast<int>(out.size()) < n; ++id) {
      if (out.empty() || cluster_.ServerOf(id) != cluster_.ServerOf(out.back())) {
        out.push_back(id);
      }
    }
    return out;
  }

  std::unique_ptr<PipelineInstance> MakeActiveInstance(int stages,
                                                       InstanceConfig config = InstanceConfig{},
                                                       std::vector<GpuId> gpus = {}) {
    if (gpus.empty()) {
      gpus = PickGpus(stages);
    }
    auto inst = std::make_unique<PipelineInstance>(&sim_, 1, MakePlan(stages), std::move(gpus),
                                                   &cost_, &network_, config);
    inst->BeginLoading({});
    sim_.RunUntil(inst->load_finish_time() + kMillisecond);
    return inst;
  }

  Request MakeRequest(RequestId id, int prompt, int output, int model_index = 0) {
    Request r;
    r.spec.id = id;
    r.spec.arrival = sim_.now();
    r.spec.model_index = model_index;
    r.spec.prompt_tokens = prompt;
    r.spec.output_tokens = output;
    return r;
  }

  Simulation sim_;
  Cluster cluster_;
  NetworkModel network_;
  CostModel cost_;
  ModelProfile profile_;
};

TEST_F(InstanceTest, LoadsThenActivates) {
  auto inst = std::make_unique<PipelineInstance>(&sim_, 1, MakePlan(4), PickGpus(4), &cost_,
                                                 &network_, InstanceConfig{});
  EXPECT_EQ(inst->state(), InstanceState::kLoading);
  inst->BeginLoading({});
  EXPECT_GT(inst->load_finish_time(), sim_.now());
  sim_.RunUntilIdle();
  EXPECT_EQ(inst->state(), InstanceState::kActive);
}

TEST_F(InstanceTest, WarmLoadActivatesFaster) {
  auto cold = std::make_unique<PipelineInstance>(&sim_, 1, MakePlan(4), PickGpus(4), &cost_,
                                                 &network_, InstanceConfig{});
  auto warm = std::make_unique<PipelineInstance>(&sim_, 2, MakePlan(4), PickGpus(4), &cost_,
                                                 &network_, InstanceConfig{});
  cold->BeginLoading({});
  warm->BeginLoading({true, true, true, true});
  EXPECT_LT(warm->load_finish_time(), cold->load_finish_time());
}

TEST_F(InstanceTest, CompletesRequestWithExactTokens) {
  auto inst = MakeActiveInstance(4);
  Request r = MakeRequest(1, 128, 8);
  ASSERT_TRUE(inst->CanAdmit(r));
  inst->Admit(&r);
  sim_.RunUntilIdle();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.tokens_generated, 8);
  EXPECT_GE(r.first_token_time, 0);
  EXPECT_GT(r.done_time, r.first_token_time);
  EXPECT_GT(r.exec_ns, 0);
  EXPECT_GT(r.comm_ns, 0);
  EXPECT_EQ(inst->stats().requests_completed, 1);
  EXPECT_EQ(inst->inflight(), 0);
}

TEST_F(InstanceTest, SingleTokenRequestCompletesAtPrefill) {
  auto inst = MakeActiveInstance(4);
  Request r = MakeRequest(1, 64, 1);
  inst->Admit(&r);
  sim_.RunUntilIdle();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.tokens_generated, 1);
  EXPECT_EQ(r.first_token_time, r.done_time);
}

TEST_F(InstanceTest, CompletionCallbackFires) {
  auto inst = MakeActiveInstance(2);
  int completions = 0;
  inst->set_completion_callback([&](Request*) { ++completions; });
  Request a = MakeRequest(1, 32, 4);
  Request b = MakeRequest(2, 32, 4);
  inst->Admit(&a);
  inst->Admit(&b);
  sim_.RunUntilIdle();
  EXPECT_EQ(completions, 2);
}

TEST_F(InstanceTest, CapacityIs32PerStage) {
  auto inst = MakeActiveInstance(4);
  EXPECT_EQ(inst->capacity(), 128);
  InstanceConfig sequential;
  sequential.pipelined = false;
  auto seq = MakeActiveInstance(4, sequential);
  EXPECT_EQ(seq->capacity(), 32);
}

TEST_F(InstanceTest, PipelinedBeatsSequentialThroughput) {
  auto piped = MakeActiveInstance(4);
  InstanceConfig seq_config;
  seq_config.pipelined = false;
  auto seq = MakeActiveInstance(4, seq_config);

  auto run = [&](PipelineInstance& inst) {
    std::vector<Request> reqs;
    reqs.reserve(32);
    for (int i = 0; i < 32; ++i) {
      reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 64, 16));
    }
    TimeNs start = sim_.now();
    for (auto& r : reqs) {
      inst.Admit(&r);
    }
    sim_.RunUntilIdle();
    TimeNs worst = 0;
    for (auto& r : reqs) {
      EXPECT_TRUE(r.done());
      worst = std::max(worst, r.done_time);
    }
    return worst - start;
  };
  TimeNs t_piped = run(*piped);
  TimeNs t_seq = run(*seq);
  EXPECT_LT(t_piped, t_seq);  // pipelining overlaps microbatch waves
}

TEST_F(InstanceTest, RefusesWhenFull) {
  InstanceConfig config;
  config.per_group_capacity = 1;  // tiny instance: capacity 2 at 2 stages
  auto inst = MakeActiveInstance(2, config);
  Request a = MakeRequest(1, 32, 64);
  Request b = MakeRequest(2, 32, 64);
  Request c = MakeRequest(3, 32, 64);
  inst->Admit(&a);
  inst->Admit(&b);
  EXPECT_FALSE(inst->CanAdmit(c));
}

TEST_F(InstanceTest, DrainCompletesInFlight) {
  auto inst = MakeActiveInstance(4);
  Request r = MakeRequest(1, 64, 12);
  inst->Admit(&r);
  sim_.Schedule(kMillisecond, [&] {
    inst->StartDraining([] {});
  });
  sim_.RunUntilIdle();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.tokens_generated, 12);
}

TEST_F(InstanceTest, CloseAdmissionsStopsNewWork) {
  auto inst = MakeActiveInstance(4);
  inst->CloseAdmissions();
  Request r = MakeRequest(1, 32, 4);
  EXPECT_FALSE(inst->CanAdmit(r));
}

TEST_F(InstanceTest, HaltExtractsDecodingWithProgress) {
  auto inst = MakeActiveInstance(4);
  Request r = MakeRequest(1, 64, 5000);
  inst->Admit(&r);
  // Let it decode for a while, then halt.
  sim_.RunUntil(sim_.now() + 3 * kSecond);
  ASSERT_EQ(r.phase, RequestPhase::kDecoding);
  int tokens_before = r.tokens_generated;
  EXPECT_GT(tokens_before, 0);

  std::vector<Request*> extracted;
  inst->HaltAndExtract([&](std::vector<Request*> out) { extracted = std::move(out); });
  sim_.RunUntilIdle();
  ASSERT_EQ(extracted.size(), 1u);
  EXPECT_EQ(extracted[0], &r);
  EXPECT_EQ(r.phase, RequestPhase::kDecoding);
  EXPECT_GE(r.tokens_generated, tokens_before);
  EXPECT_EQ(inst->inflight(), 0);
  EXPECT_EQ(inst->KvBytesTotal(), 0);
}

TEST_F(InstanceTest, InjectDecodingResumesProgress) {
  auto a = MakeActiveInstance(4);
  auto b = MakeActiveInstance(8);
  Request r = MakeRequest(1, 64, 800);
  a->Admit(&r);
  sim_.RunUntil(sim_.now() + 2 * kSecond);
  std::vector<Request*> moved;
  a->HaltAndExtract([&](std::vector<Request*> out) { moved = std::move(out); });
  sim_.RunUntilIdle();
  ASSERT_EQ(moved.size(), 1u);
  int progress = r.tokens_generated;
  ASSERT_GT(progress, 0);
  ASSERT_LT(progress, 800);
  b->InjectDecoding(&r);
  sim_.RunUntilIdle();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.tokens_generated, 800);
}

TEST_F(InstanceTest, StallAccumulatesUnderOverload) {
  auto inst = MakeActiveInstance(8);
  std::vector<Request> reqs;
  reqs.reserve(200);
  for (int i = 0; i < 200; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 256, 24));
  }
  for (auto& r : reqs) {
    if (inst->CanAdmit(r)) {
      inst->Admit(&r);
    }
  }
  sim_.RunUntilIdle();
  EXPECT_GT(inst->TotalBusy(), 0);
  EXPECT_GT(inst->TotalStall(), 0);  // comm gaps between waves are pipeline bubbles
  // No stage is busy for longer than the run: mean stage utilization stays <= 1.
  EXPECT_LE(inst->TotalBusy(), sim_.now() * inst->num_stages());
}

TEST_F(InstanceTest, EstimatesAreMonotone) {
  auto fine = MakeActiveInstance(8);
  auto coarse = MakeActiveInstance(2);
  // Finer pipelines traverse more hops: higher token latency.
  EXPECT_GT(fine->EstimateTraversal(8), coarse->EstimateTraversal(8));
  // Bigger batches never reduce traversal time.
  EXPECT_GE(fine->EstimateTraversal(32), fine->EstimateTraversal(1));
  EXPECT_GT(fine->EstimateCadence(8), 0);
}

// ---------- Wave timing rows ----------

TEST_F(InstanceTest, LoneDecodeWaveCostsOneTraversal) {
  auto inst = MakeActiveInstance(4);
  Request r = MakeRequest(1, 128, 2);
  inst->Admit(&r);  // the prompt wave is charged as it starts
  TimeNs after_prefill = r.exec_ns + r.comm_ns;
  sim_.RunUntilIdle();
  ASSERT_TRUE(r.done());
  // The second (and last) wave is a batch-1 decode wave: exactly the table's row.
  EXPECT_EQ(r.exec_ns + r.comm_ns - after_prefill, inst->EstimateTraversal(1));
}

TEST_F(InstanceTest, OverfilledDecodeWaveMatchesRowArithmetic) {
  // per_group_capacity 2 with one group: three injected decoders overfill it, so the
  // wave has no row in the table and runs on the scratch row.
  InstanceConfig small;
  small.per_group_capacity = 2;
  small.pipelined = false;
  auto inst = std::make_unique<PipelineInstance>(&sim_, 1, MakePlan(3), PickGpus(3), &cost_,
                                                 &network_, small);
  inst->BeginLoading({});
  std::vector<Request> reqs;
  for (int i = 0; i < 3; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 64, 2));
    reqs.back().phase = RequestPhase::kDecoding;
    reqs.back().tokens_generated = 1;
  }
  for (Request& r : reqs) {
    inst->InjectDecoding(&r);  // still loading: no wave starts until all three joined
  }
  sim_.RunUntilIdle();

  // The same plan and GPUs with room for three in the table give the reference row.
  InstanceConfig roomy = small;
  roomy.per_group_capacity = 3;
  auto reference = MakeActiveInstance(3, roomy);
  for (const Request& r : reqs) {
    ASSERT_TRUE(r.done());
    EXPECT_EQ(r.exec_ns + r.comm_ns, reference->EstimateTraversal(3));
  }
}

TEST_F(InstanceTest, MixedPrefillWaveChargesPromptTokens) {
  // Decode-only batch-1 compute, measured on a lone request's decode wave.
  auto probe = MakeActiveInstance(4);
  Request lone = MakeRequest(1, 64, 2);
  probe->Admit(&lone);
  TimeNs prefill_exec = lone.exec_ns;
  sim_.RunUntilIdle();
  const TimeNs decode_exec = lone.exec_ns - prefill_exec;

  // One group: a request admitted while the group is mid-wave joins the next wave as
  // prompt work alongside the decoding request.
  InstanceConfig sequential;
  sequential.pipelined = false;
  auto inst = MakeActiveInstance(4, sequential);
  Request decoder = MakeRequest(2, 64, 400);
  inst->Admit(&decoder);
  sim_.RunUntil(sim_.now() + kSecond);
  ASSERT_EQ(decoder.phase, RequestPhase::kDecoding);
  constexpr int kPrompt = 512;
  Request joiner = MakeRequest(3, kPrompt, 1);  // done after its prompt wave
  inst->Admit(&joiner);
  EXPECT_EQ(joiner.exec_ns, 0);  // queued behind the in-flight wave
  sim_.RunUntilIdle();
  ASSERT_TRUE(joiner.done());

  // With no compute dilation every stage's prompt compute is exact integer arithmetic.
  TimeNs prompt_per_token = 0;
  for (const StagePlan& stage : inst->plan().stages) {
    prompt_per_token += stage.compute_time / inst->plan().spec.context_window;
  }
  ASSERT_GT(prompt_per_token, 0);
  EXPECT_EQ(joiner.exec_ns, decode_exec + kPrompt * prompt_per_token);
  EXPECT_GT(joiner.exec_ns + joiner.comm_ns, inst->EstimateTraversal(1));
}

// ---------- Fail-slow stretch in the wave loop ----------

TEST_F(InstanceTest, HealthyClusterObservedBusyEqualsBase) {
  auto inst = MakeActiveInstance(4);
  std::vector<Request> reqs;
  reqs.reserve(16);
  for (int i = 0; i < 16; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 96, 12));
    inst->Admit(&reqs.back());
  }
  sim_.RunUntilIdle();
  for (int s = 0; s < inst->num_stages(); ++s) {
    EXPECT_GT(inst->StageBusyBase(s), 0) << s;
    EXPECT_EQ(inst->StageBusyObserved(s), inst->StageBusyBase(s)) << s;
  }
}

TEST_F(InstanceTest, SlowServerStretchesOnlyItsStage) {
  auto inst = MakeActiveInstance(4, InstanceConfig{}, OneGpuPerServer(4));
  ASSERT_NE(inst->StageServer(1), inst->StageServer(0));
  ASSERT_NE(inst->StageServer(1), inst->StageServer(2));
  cluster_.SetServerPerf(inst->StageServer(1), 0.5);
  Request r = MakeRequest(1, 64, 24);
  inst->Admit(&r);
  sim_.RunUntilIdle();
  ASSERT_TRUE(r.done());
  // Half speed doubles the stage's compute exactly; the base keeps the healthy profile.
  EXPECT_EQ(inst->StageBusyObserved(1), 2 * inst->StageBusyBase(1));
  for (int s : {0, 2, 3}) {
    EXPECT_EQ(inst->StageBusyObserved(s), inst->StageBusyBase(s)) << s;
  }
}

TEST_F(InstanceTest, SlowLinkStretchChargedToSenderAndRequestComm) {
  auto healthy = MakeActiveInstance(4, InstanceConfig{}, OneGpuPerServer(4));
  const std::vector<GpuId>& gpus = healthy->gpus();
  for (size_t s = 0; s + 1 < gpus.size(); ++s) {
    LinkTier tier = network_.TierBetween(gpus[s], gpus[s + 1]);
    ASSERT_TRUE(tier == LinkTier::kIntraRack || tier == LinkTier::kInterRack) << s;
  }
  Request h = MakeRequest(1, 64, 24);
  healthy->Admit(&h);
  sim_.RunUntilIdle();

  // Stage 1's server sits on both NIC hops 0->1 and 1->2; each sender pays its hop.
  cluster_.SetServerLinkFactor(healthy->StageServer(1), 0.5);
  auto slow = MakeActiveInstance(4, InstanceConfig{}, OneGpuPerServer(4));
  Request d = MakeRequest(2, 64, 24);
  slow->Admit(&d);
  sim_.RunUntilIdle();
  ASSERT_TRUE(h.done() && d.done());

  TimeNs stretch = 0;
  for (int s = 0; s < slow->num_stages(); ++s) {
    EXPECT_EQ(slow->StageBusyBase(s), healthy->StageBusyBase(s)) << s;
    stretch += slow->StageBusyObserved(s) - slow->StageBusyBase(s);
  }
  EXPECT_GT(slow->StageBusyObserved(0), slow->StageBusyBase(0));
  EXPECT_GT(slow->StageBusyObserved(1), slow->StageBusyBase(1));
  EXPECT_EQ(slow->StageBusyObserved(2), slow->StageBusyBase(2));
  EXPECT_EQ(slow->StageBusyObserved(3), slow->StageBusyBase(3));
  EXPECT_EQ(d.exec_ns, h.exec_ns);
  EXPECT_EQ(d.comm_ns, h.comm_ns + stretch);
}

TEST_F(InstanceTest, RestoredServerStopsStretchOnNextWave) {
  auto inst = MakeActiveInstance(4, InstanceConfig{}, OneGpuPerServer(4));
  const ServerId server = inst->StageServer(1);
  cluster_.SetServerPerf(server, 0.5);
  Request r = MakeRequest(1, 64, 400);
  inst->Admit(&r);
  sim_.RunUntil(sim_.now() + kSecond);
  ASSERT_FALSE(r.done());
  const TimeNs gap = inst->StageBusyObserved(1) - inst->StageBusyBase(1);
  const TimeNs base = inst->StageBusyBase(1);
  ASSERT_GT(gap, 0);

  // The wave in flight was priced when it started; every later wave is healthy.
  cluster_.SetServerPerf(server, 1.0);
  sim_.RunUntilIdle();
  ASSERT_TRUE(r.done());
  EXPECT_GT(inst->StageBusyBase(1), base);
  EXPECT_EQ(inst->StageBusyObserved(1) - inst->StageBusyBase(1), gap);
}

// ---------- Router ----------

TEST_F(InstanceTest, RouterDispatchesToLeastLoaded) {
  auto a = MakeActiveInstance(4);
  auto b = MakeActiveInstance(4);
  Router router(&sim_);
  router.RegisterInstance(a.get());
  router.RegisterInstance(b.get());
  a->set_pump_callback([&] { router.Pump(); });
  b->set_pump_callback([&] { router.Pump(); });

  std::vector<Request> reqs;
  reqs.reserve(40);
  for (int i = 0; i < 40; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 64, 12));
  }
  for (auto& r : reqs) {
    router.Submit(&r);
  }
  EXPECT_GT(a->inflight() + a->pending(), 0);
  EXPECT_GT(b->inflight() + b->pending(), 0);
  sim_.RunUntilIdle();
  for (auto& r : reqs) {
    EXPECT_TRUE(r.done());
  }
  EXPECT_EQ(router.total_submitted(), 40);
}

TEST_F(InstanceTest, RouterQueuesWhenSaturated) {
  InstanceConfig tiny;
  tiny.per_group_capacity = 1;
  auto a = MakeActiveInstance(2, tiny);
  Router router(&sim_);
  router.RegisterInstance(a.get());
  std::vector<Request> reqs;
  reqs.reserve(10);
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 32, 50));
  }
  for (auto& r : reqs) {
    router.Submit(&r);
  }
  EXPECT_GT(router.queue_length(), 0);
  EXPECT_GE(router.max_queue_length(), router.queue_length());
}

TEST_F(InstanceTest, RouterRequeueFrontPreservesOrder) {
  Router router(&sim_);
  Request a = MakeRequest(1, 32, 4);
  Request b = MakeRequest(2, 32, 4);
  Request c = MakeRequest(3, 32, 4);
  router.Submit(&c);  // no instances: it queues
  router.RequeueFront({&a, &b});
  EXPECT_EQ(router.queue_length(), 3);
  // Dispatch order after requeue should be a, b, c — verified by draining through an
  // instance with capacity 1 group and checking first_exec ordering.
  auto inst = MakeActiveInstance(2);
  inst->set_pump_callback([&] { router.Pump(); });
  router.RegisterInstance(inst.get());
  sim_.RunUntilIdle();
  EXPECT_TRUE(a.done() && b.done() && c.done());
  EXPECT_LE(a.first_exec_start, b.first_exec_start);
  EXPECT_LE(b.first_exec_start, c.first_exec_start);
}

TEST_F(InstanceTest, RouterDeregisterPumpsQueue) {
  // Regression: DeregisterInstance must re-dispatch the queue immediately. Here the
  // queue is stuck from a stale state (B activated without a pump hook); removing A
  // must pump the queued work onto B instead of leaving it to the next Submit.
  InstanceConfig tiny;
  tiny.per_group_capacity = 1;
  auto a = MakeActiveInstance(2, tiny);  // capacity 2
  auto b = std::make_unique<PipelineInstance>(&sim_, 2, MakePlan(2), PickGpus(2), &cost_,
                                              &network_, InstanceConfig{});
  Router router(&sim_);
  router.RegisterInstance(a.get());
  router.RegisterInstance(b.get());  // still loading: not a dispatch target yet

  std::vector<Request> reqs;
  reqs.reserve(5);
  for (int i = 0; i < 5; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 32, 2000));
  }
  for (auto& r : reqs) {
    router.Submit(&r);
  }
  EXPECT_EQ(router.queue_length(), 3);  // A holds 2, the rest wait

  // B activates, but nothing pumps (no activation hook wired in this harness).
  b->BeginLoading({});
  sim_.RunUntil(b->load_finish_time() + kMillisecond);
  ASSERT_EQ(b->state(), InstanceState::kActive);
  EXPECT_EQ(router.queue_length(), 3);

  router.DeregisterInstance(a->id());
  EXPECT_EQ(router.queue_length(), 0) << "deregister did not pump the queue";
  EXPECT_GT(b->inflight() + b->pending(), 0);
}

TEST_F(InstanceTest, RouterIsolatesModels) {
  // Per-model routing: a model-0 request must never land on a model-1 instance.
  InstanceConfig model0_config;
  model0_config.model_id = 0;
  InstanceConfig model1_config;
  model1_config.model_id = 1;
  auto a = MakeActiveInstance(4, model0_config);
  auto b = MakeActiveInstance(4, model1_config);
  Router router(&sim_);
  router.RegisterInstance(a.get());
  router.RegisterInstance(b.get());
  a->set_pump_callback([&] { router.Pump(); });
  b->set_pump_callback([&] { router.Pump(); });

  std::vector<Request> reqs;
  reqs.reserve(30);
  for (int i = 0; i < 30; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 64, 8, /*model_index=*/i % 3));
  }
  for (auto& r : reqs) {
    router.Submit(&r);
  }
  // Model 2 has no instance: its requests stay queued even though capacity exists.
  EXPECT_EQ(router.queue_length_for(2), 10);
  EXPECT_EQ(router.queue_length(), 10);
  sim_.RunUntilIdle();
  EXPECT_EQ(a->stats().requests_completed, 10);  // exactly the model-0 stream
  EXPECT_EQ(b->stats().requests_completed, 10);  // exactly the model-1 stream
  for (const auto& r : reqs) {
    if (r.spec.model_index == 2) {
      EXPECT_FALSE(r.done());
    } else {
      EXPECT_TRUE(r.done());
    }
  }
  EXPECT_EQ(router.queue_length_for(2), 10);
  EXPECT_EQ(router.queue_length_for(0), 0);
}

// ---------- Recovery analysis ----------

TEST(Recovery, DetectsStallEpisode) {
  std::vector<CompletionSample> series;
  // 100 normal completions at 1 s latency, then a stall burst at 3 s, then recovery.
  TimeNs t = 0;
  for (int i = 0; i < 100; ++i) {
    t += 100 * kMillisecond;
    series.push_back({t, 1 * kSecond});
  }
  TimeNs stall_start = t + 100 * kMillisecond;
  for (int i = 0; i < 10; ++i) {
    t += 100 * kMillisecond;
    series.push_back({t, 3 * kSecond});
  }
  t += 100 * kMillisecond;
  series.push_back({t, 1 * kSecond});  // recovery event
  TimeNs recovery_at = t;
  for (int i = 0; i < 50; ++i) {
    t += 100 * kMillisecond;
    series.push_back({t, 1 * kSecond});
  }
  RecoveryReport report = AnalyzeRecovery(series);
  EXPECT_EQ(report.stall_events, 1);
  EXPECT_NEAR(report.baseline_latency_s, 1.0, 0.01);
  EXPECT_NEAR(report.median_recovery_s, ToSeconds(recovery_at - stall_start), 0.05);
}

TEST(Recovery, NoStallsOnFlatSeries) {
  std::vector<CompletionSample> series;
  for (int i = 0; i < 200; ++i) {
    series.push_back({static_cast<TimeNs>(i) * kSecond, 500 * kMillisecond});
  }
  RecoveryReport report = AnalyzeRecovery(series);
  EXPECT_EQ(report.stall_events, 0);
  EXPECT_EQ(report.stalled_fraction, 0.0);
}

}  // namespace
}  // namespace flexpipe
