#include <gtest/gtest.h>

#include "src/model/cost_model.h"
#include "src/model/graph.h"
#include "src/model/model_spec.h"
#include "src/model/profiler.h"

namespace flexpipe {
namespace {

TEST(ModelSpec, ZooParameterCounts) {
  EXPECT_EQ(Opt66B().param_bytes, GiB(120.0));  // paper's Table 2 figure
  EXPECT_LT(Llama2_7B().param_bytes, Bert21B().param_bytes);
  EXPECT_LT(Bert21B().param_bytes, Opt66B().param_bytes);
  EXPECT_EQ(EvaluationModels().size(), 4u);
}

TEST(Graph, OperatorChainStructure) {
  ModelSpec spec = Opt66B();
  ComputationGraph graph = ComputationGraph::Build(spec);
  // embedding + 4 ops per block + head
  EXPECT_EQ(graph.op_count(), 1 + spec.num_layers * 4 + 1);
  EXPECT_EQ(graph.ops().front().kind, OpKind::kEmbedding);
  EXPECT_EQ(graph.ops().back().kind, OpKind::kLmHead);
  // Parameters sum to the model total (within rounding).
  Bytes total = 0;
  for (const Operator& op : graph.ops()) {
    total += op.param_bytes;
  }
  EXPECT_NEAR(static_cast<double>(total), static_cast<double>(spec.param_bytes),
              static_cast<double>(spec.param_bytes) * 0.01);
}

TEST(Graph, BlockBoundariesAfterMlp) {
  ComputationGraph graph = ComputationGraph::Build(Llama2_7B());
  int boundaries = 0;
  for (const Operator& op : graph.ops()) {
    if (op.kind == OpKind::kMlp) {
      EXPECT_TRUE(op.block_boundary_after);
      ++boundaries;
    }
    if (op.kind == OpKind::kAttention) {
      EXPECT_FALSE(op.block_boundary_after);
    }
  }
  EXPECT_EQ(boundaries, Llama2_7B().num_layers);
}

TEST(Graph, MidBlockCutsCarryWiderActivations) {
  ComputationGraph graph = ComputationGraph::Build(Llama2_7B());
  // Find an attention op (mid-block) and an MLP op (boundary).
  Bytes mid = 0;
  Bytes clean = 0;
  for (const Operator& op : graph.ops()) {
    if (op.kind == OpKind::kAttention && mid == 0) {
      mid = graph.CutActivationBytes(op.index);
    }
    if (op.kind == OpKind::kMlp && clean == 0) {
      clean = graph.CutActivationBytes(op.index);
    }
  }
  EXPECT_GT(mid, clean);
}

// -- Table 2 calibration ---------------------------------------------------------------

class Table2Calibration : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(Table2Calibration, PerStageComputeMatchesPaper) {
  auto [stages, paper_compute_ms, paper_load_s] = GetParam();
  CostModel cost;
  ModelSpec spec = Opt66B();
  ComputationGraph graph = ComputationGraph::Build(spec);
  // Per-stage compute at the reference conditions (the profile runs OPT-66B at its
  // 4096-token context, batch 1): a block-aligned 1/S slice from the middle of the chain
  // (ops: embedding + 4 per block + head), plus the per-stage overhead the runtime adds.
  ModelProfile profile = Profiler(&cost, Profiler::Config{}).Profile(graph);
  ASSERT_EQ(profile.profiling_tokens, 4096);
  int blocks_per_stage = spec.num_layers / stages;
  int op_begin = 1 + 4 * blocks_per_stage;  // skip stage 0 (embedding skews it)
  int op_end = op_begin + 4 * blocks_per_stage;
  TimeNs t = FromMillis(cost.config().per_stage_overhead_ms);
  for (int op = op_begin; op < op_end; ++op) {
    t += profile.ops[static_cast<size_t>(op)].compute_time;
  }
  // The paper's column is t_c(S) = 275.5/S + 1.06 ms; allow 15% for share rounding.
  EXPECT_NEAR(ToMillis(t), paper_compute_ms, paper_compute_ms * 0.15) << stages << " stages";

  // Cold load per stage interpolates the Table 2 anchors (exact at anchor points).
  Bytes per_stage = spec.param_bytes / stages;
  TimeNs load = cost.ColdLoadTime(per_stage);
  EXPECT_NEAR(ToSeconds(load), paper_load_s, paper_load_s * 0.05) << stages << " stages";
}

INSTANTIATE_TEST_SUITE_P(Table2Rows, Table2Calibration,
                         ::testing::Values(std::make_tuple(4, 69.94, 47.14),
                                           std::make_tuple(8, 36.63, 13.05),
                                           std::make_tuple(16, 18.67, 9.19),
                                           std::make_tuple(32, 9.67, 5.43)));

TEST(CostModel, MaxBatchIs32PerStage) {
  CostModel cost;
  EXPECT_EQ(cost.MaxRequestsPerStage(), 32);
}

TEST(CostModel, PrefillScalesWithTokensAndModelSize) {
  CostModel cost;
  TimeNs small = cost.FullModelComputeTime(Opt66B(), Phase::kPrefill, 1024, 1);
  TimeNs big = cost.FullModelComputeTime(Opt66B(), Phase::kPrefill, 4096, 1);
  EXPECT_NEAR(static_cast<double>(big) / small, 4.0, 0.05);

  TimeNs llama = cost.FullModelComputeTime(Llama2_7B(), Phase::kPrefill, 4096, 1);
  EXPECT_LT(llama, big / 5);  // 13 GB vs 120 GB of weights
}

TEST(CostModel, DecodeBatchSlopeIsMild) {
  CostModel cost;
  TimeNs b1 = cost.FullModelComputeTime(Opt66B(), Phase::kDecode, 1, 1);
  TimeNs b32 = cost.FullModelComputeTime(Opt66B(), Phase::kDecode, 1, 32);
  double ratio = static_cast<double>(b32) / b1;
  EXPECT_GT(ratio, 1.2);
  EXPECT_LT(ratio, 2.5);  // batching decode is cheap (memory-bound)
}

TEST(CostModel, WarmLoadBeatsColdLoad) {
  CostModel cost;
  Bytes stage = GiB(15);
  TimeNs cold = cost.ColdLoadTime(stage);
  TimeNs warm = cost.WarmLoadTime(stage, GiBps(24.0));
  EXPECT_LT(warm, cold / 5);  // host-cache hits transform cold starts (§7)
}

TEST(CostModel, LoadTimeMonotoneInStageSize) {
  CostModel cost;
  TimeNs prev = 0;
  for (double gib : {1.0, 3.75, 7.5, 15.0, 30.0, 60.0}) {
    TimeNs t = cost.ColdLoadTime(GiB(gib));
    EXPECT_GE(t, prev) << gib;
    prev = t;
  }
}

TEST(Profiler, ProfileSumsMatchModel) {
  CostModel cost;
  Profiler profiler(&cost, Profiler::Config{});
  ComputationGraph graph = ComputationGraph::Build(Llama2_7B());
  ModelProfile profile = profiler.Profile(graph);
  EXPECT_EQ(profile.ops.size(), static_cast<size_t>(graph.op_count()));
  Bytes params = 0;
  TimeNs compute = 0;
  for (const OperatorProfile& op : profile.ops) {
    params += op.param_bytes;
    compute += op.compute_time;
  }
  EXPECT_NEAR(static_cast<double>(params), static_cast<double>(Llama2_7B().param_bytes),
              static_cast<double>(Llama2_7B().param_bytes) * 0.01);
  TimeNs expected = cost.FullModelComputeTime(Llama2_7B(), Phase::kPrefill,
                                              Llama2_7B().context_window, 1);
  EXPECT_NEAR(static_cast<double>(compute), static_cast<double>(expected),
              static_cast<double>(expected) * 0.02);
}

TEST(Profiler, NoiseIsBoundedAndSeeded) {
  CostModel cost;
  Profiler::Config config;
  config.noise_sigma = 0.05;
  config.seed = 99;
  Profiler a(&cost, config);
  Profiler b(&cost, config);
  ComputationGraph graph = ComputationGraph::Build(Whisper9B());
  ModelProfile pa = a.Profile(graph);
  ModelProfile pb = b.Profile(graph);
  for (size_t i = 0; i < pa.ops.size(); ++i) {
    EXPECT_EQ(pa.ops[i].compute_time, pb.ops[i].compute_time);  // deterministic
  }
}

}  // namespace
}  // namespace flexpipe
