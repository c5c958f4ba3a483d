#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "src/model/profiler.h"
#include "src/partition/partitioner.h"

namespace flexpipe {
namespace {

// ---------------------------------------------------------------------------
// Naive reference DP: the pre-optimization O(G·n³) solver, kept verbatim as ground
// truth for the prefix-sum/early-break rewrite. Any divergence in boundaries or cost
// on the randomized suite below is a bug in the fast path.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

double RefGroupCost(const std::vector<Partitioner::Item>& items, int begin, int end,
                    double mean_cost, const PartitionerConfig& config) {
  TimeNs compute = 0;
  Bytes params = 0;
  for (int i = begin; i < end; ++i) {
    compute += items[static_cast<size_t>(i)].compute;
    params += items[static_cast<size_t>(i)].params;
  }
  if (params > config.gpu_memory) {
    return kInf;
  }
  const Partitioner::Item& last = items[static_cast<size_t>(end - 1)];
  double cost = static_cast<double>(compute);
  cost += static_cast<double>(TransferTime(last.activation_out, config.interstage_bandwidth));
  double load_ns = static_cast<double>(params) / config.interstage_bandwidth * 1e9;
  double overlap_ns = static_cast<double>(config.overlap_target);
  cost += config.load_weight * std::max(0.0, load_ns - overlap_ns);
  if (!last.clean_boundary) {
    cost += config.lambda_refactor * mean_cost;
  }
  return cost;
}

std::vector<std::pair<int, int>> RefSolveChain(const std::vector<Partitioner::Item>& items,
                                               int groups,
                                               const PartitionerConfig& config) {
  const int n = static_cast<int>(items.size());
  TimeNs total_compute = 0;
  for (const Partitioner::Item& it : items) {
    total_compute += it.compute;
  }
  double mean_cost = static_cast<double>(total_compute) / groups;

  std::vector<std::vector<double>> dp(static_cast<size_t>(groups + 1),
                                      std::vector<double>(static_cast<size_t>(n + 1), kInf));
  std::vector<std::vector<int>> parent(static_cast<size_t>(groups + 1),
                                       std::vector<int>(static_cast<size_t>(n + 1), -1));
  dp[0][0] = 0.0;
  for (int k = 1; k <= groups; ++k) {
    for (int i = k; i <= n - (groups - k); ++i) {
      for (int j = k - 1; j < i; ++j) {
        if (dp[static_cast<size_t>(k - 1)][static_cast<size_t>(j)] == kInf) {
          continue;
        }
        double gc = RefGroupCost(items, j, i, mean_cost, config);
        if (gc == kInf) {
          continue;
        }
        double candidate = std::max(dp[static_cast<size_t>(k - 1)][static_cast<size_t>(j)], gc);
        if (candidate < dp[static_cast<size_t>(k)][static_cast<size_t>(i)]) {
          dp[static_cast<size_t>(k)][static_cast<size_t>(i)] = candidate;
          parent[static_cast<size_t>(k)][static_cast<size_t>(i)] = j;
        }
      }
    }
  }
  if (dp[static_cast<size_t>(groups)][static_cast<size_t>(n)] == kInf) {
    return {};
  }
  std::vector<std::pair<int, int>> result(static_cast<size_t>(groups));
  int i = n;
  for (int k = groups; k >= 1; --k) {
    int j = parent[static_cast<size_t>(k)][static_cast<size_t>(i)];
    result[static_cast<size_t>(k - 1)] = {j, i};
    i = j;
  }
  return result;
}

// Bottleneck cost of a concrete tiling under the reference cost model.
double RefPlanCost(const std::vector<Partitioner::Item>& items,
                   const std::vector<std::pair<int, int>>& groups,
                   const PartitionerConfig& config) {
  TimeNs total_compute = 0;
  for (const Partitioner::Item& it : items) {
    total_compute += it.compute;
  }
  double mean_cost = static_cast<double>(total_compute) / static_cast<double>(groups.size());
  double worst = 0.0;
  for (const auto& [begin, end] : groups) {
    worst = std::max(worst,
                     RefGroupCost(items, begin, end, mean_cost, config));
  }
  return worst;
}

ModelProfile MakeProfile(const ModelSpec& spec) {
  static CostModel cost;
  Profiler profiler(&cost, Profiler::Config{});
  ComputationGraph graph = ComputationGraph::Build(spec);
  return profiler.Profile(graph);
}

TEST(Partitioner, StagesTileTheOperatorChain) {
  ModelProfile profile = MakeProfile(Opt66B());
  Partitioner partitioner;
  PipelinePlan plan = partitioner.Partition(profile, 8);
  ASSERT_EQ(plan.num_stages(), 8);
  int expect = 0;
  Bytes total = 0;
  for (const StagePlan& s : plan.stages) {
    EXPECT_EQ(s.op_begin, expect);
    EXPECT_GT(s.op_end, s.op_begin);
    expect = s.op_end;
    total += s.param_bytes;
  }
  EXPECT_EQ(expect, static_cast<int>(profile.ops.size()));
  Bytes profiled = 0;
  for (const OperatorProfile& op : profile.ops) {
    profiled += op.param_bytes;
  }
  EXPECT_NEAR(static_cast<double>(total), static_cast<double>(profiled),
              static_cast<double>(profiled) * 0.001);
}

TEST(Partitioner, RespectsMemoryCap) {
  ModelProfile profile = MakeProfile(Opt66B());
  Partitioner partitioner;
  for (int stages : {4, 8, 16, 32}) {
    PipelinePlan plan = partitioner.Partition(profile, stages);
    EXPECT_LE(plan.MaxStageParams(), partitioner.config().gpu_memory) << stages;
  }
}

TEST(Partitioner, BalancedStages) {
  ModelProfile profile = MakeProfile(Opt66B());
  Partitioner partitioner;
  PipelinePlan plan = partitioner.Partition(profile, 8);
  TimeNs min_t = plan.stages[0].compute_time;
  TimeNs max_t = min_t;
  for (const StagePlan& s : plan.stages) {
    min_t = std::min(min_t, s.compute_time);
    max_t = std::max(max_t, s.compute_time);
  }
  // Eq. 8's balance requirement: bottleneck within 30% of the lightest stage.
  EXPECT_LT(static_cast<double>(max_t) / static_cast<double>(min_t), 1.3);
}

TEST(Partitioner, PrefersBlockBoundaries) {
  ModelProfile profile = MakeProfile(Opt66B());
  Partitioner partitioner;
  PipelinePlan plan = partitioner.Partition(profile, 16);
  int clean = 0;
  for (const StagePlan& s : plan.stages) {
    if (s.clean_boundary) {
      ++clean;
    }
  }
  // 64 blocks / 16 stages: every cut can land on a block edge.
  EXPECT_EQ(clean, 16);
}

TEST(Partitioner, LadderIsNested) {
  ModelProfile profile = MakeProfile(Opt66B());
  Partitioner partitioner;
  GranularityLadder ladder = partitioner.BuildLadder(profile);
  EXPECT_TRUE(ladder.IsNested());
  EXPECT_EQ(ladder.finest(), 32);
  // 120 GB / 2 stages would need 60 GB per GPU: infeasible on 40 GB devices, so the
  // OPT-66B ladder starts at 4 stages.
  EXPECT_EQ(ladder.coarsest(), 4);
  for (int g : ladder.granularities) {
    EXPECT_EQ(ladder.plan(g).num_stages(), g);
  }
}

TEST(Partitioner, SmallModelKeepsCoarsestGranularity) {
  ModelProfile profile = MakeProfile(Llama2_7B());
  Partitioner partitioner;
  GranularityLadder ladder = partitioner.BuildLadder(profile);
  EXPECT_EQ(ladder.coarsest(), 2);  // 13 GB / 2 fits easily
}

TEST(Partitioner, LadderNavigation) {
  ModelProfile profile = MakeProfile(Llama2_7B());
  Partitioner partitioner;
  GranularityLadder ladder = partitioner.BuildLadder(profile);
  // Each rung doubles the stage count, from the coarsest that fits to the finest.
  EXPECT_EQ(ladder.granularities, (std::vector<int>{2, 4, 8, 16, 32}));
  EXPECT_EQ(ladder.coarsest(), 2);
  EXPECT_EQ(ladder.finest(), 32);
}

TEST(Partitioner, CoarseStagesAggregateFineStages) {
  ModelProfile profile = MakeProfile(Opt66B());
  Partitioner partitioner;
  GranularityLadder ladder = partitioner.BuildLadder(profile);
  const PipelinePlan& fine = ladder.plan(32);
  const PipelinePlan& coarse = ladder.plan(8);
  for (const StagePlan& c : coarse.stages) {
    Bytes sum = 0;
    for (int f = c.fine_begin; f < c.fine_end; ++f) {
      sum += fine.stages[static_cast<size_t>(f)].param_bytes;
    }
    EXPECT_EQ(sum, c.param_bytes);
    EXPECT_EQ(fine.stages[static_cast<size_t>(c.fine_begin)].op_begin, c.op_begin);
    EXPECT_EQ(fine.stages[static_cast<size_t>(c.fine_end - 1)].op_end, c.op_end);
  }
}

TEST(Partitioner, FinerGranularityLoadsFasterPerStage) {
  // The Insight-2 property: finer stages are individually smaller.
  ModelProfile profile = MakeProfile(Opt66B());
  Partitioner partitioner;
  GranularityLadder ladder = partitioner.BuildLadder(profile);
  Bytes prev = ladder.plan(4).MaxStageParams();
  for (int g : {8, 16, 32}) {
    Bytes cur = ladder.plan(g).MaxStageParams();
    EXPECT_LT(cur, prev) << g;
    prev = cur;
  }
}

TEST(Partitioner, SmallModelManyStagesStillFeasible) {
  ModelProfile profile = MakeProfile(Whisper9B());
  Partitioner partitioner;
  PipelinePlan plan = partitioner.Partition(profile, 32);
  EXPECT_EQ(plan.num_stages(), 32);
  EXPECT_TRUE(plan.MaxStageParams() > 0);
}

TEST(Partitioner, SolveChainMatchesNaiveReferenceOnRandomChains) {
  std::mt19937_64 rng(20260730);
  int feasible_cases = 0;
  int infeasible_cases = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::uniform_int_distribution<int> n_dist(2, 36);
    const int n = n_dist(rng);
    std::uniform_int_distribution<int> g_dist(1, std::min(n, 10));
    const int groups = g_dist(rng);

    PartitionerConfig config;
    // Memory caps drawn tight enough that some trials are infeasible outright and many
    // exercise the early-break path mid-scan.
    std::uniform_int_distribution<Bytes> mem_dist(GiB(2), GiB(24));
    config.gpu_memory = mem_dist(rng);

    std::vector<Partitioner::Item> items(static_cast<size_t>(n));
    std::uniform_int_distribution<TimeNs> compute_dist(10 * kMicrosecond, 20 * kMillisecond);
    std::uniform_int_distribution<Bytes> param_dist(MiB(64), GiB(6));
    std::uniform_int_distribution<Bytes> act_dist(0, MiB(512));
    std::bernoulli_distribution clean_dist(0.7);
    for (auto& item : items) {
      item.compute = compute_dist(rng);
      item.params = param_dist(rng);
      item.activation_out = act_dist(rng);
      item.clean_boundary = clean_dist(rng);
    }

    Partitioner partitioner(config);
    auto fast = partitioner.SolveChain(items, groups);
    auto reference = RefSolveChain(items, groups, config);
    ASSERT_EQ(fast, reference) << "trial " << trial << " n=" << n << " groups=" << groups;
    if (fast.empty()) {
      ++infeasible_cases;
      continue;
    }
    ++feasible_cases;
    // Same boundaries imply the same cost, but assert it explicitly (exact equality —
    // the rewrite must reproduce the reference arithmetic bit for bit).
    EXPECT_EQ(RefPlanCost(items, fast, config), RefPlanCost(items, reference, config));
  }
  // The suite must genuinely exercise both outcomes.
  EXPECT_GT(feasible_cases, 50);
  EXPECT_GT(infeasible_cases, 20);
}

// Exact ties are where the cost-bound break and the smallest-j tie rule can go wrong,
// and random costs almost never produce them. Chains built from a two- or three-value
// palette with zero activations tie constantly: many split points price to the same
// group cost and the same bottleneck.
TEST(Partitioner, SolveChainMatchesNaiveReferenceOnTieHeavyChains) {
  std::mt19937_64 rng(20261017);
  enum class Boundaries { kAllClean, kAllUnclean, kAlternating };
  int feasible_cases = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::uniform_int_distribution<int> n_dist(2, 48);
    const int n = n_dist(rng);
    std::uniform_int_distribution<int> g_dist(1, std::min(n, 12));
    const int groups = g_dist(rng);
    const auto boundaries = static_cast<Boundaries>(trial % 3);

    PartitionerConfig config;
    std::uniform_int_distribution<Bytes> mem_dist(GiB(4), GiB(40));
    config.gpu_memory = mem_dist(rng);

    // Equal compute on every item in half the trials, a small palette otherwise;
    // parameters always from a palette of two or three sizes.
    std::uniform_int_distribution<int> palette_dist(2, 3);
    const int palette = palette_dist(rng);
    const bool equal_compute = (trial / 3) % 2 == 0;
    const std::vector<TimeNs> computes = {2 * kMillisecond, 4 * kMillisecond,
                                          6 * kMillisecond};
    const std::vector<Bytes> params = {GiB(1), GiB(2), MiB(512)};
    std::uniform_int_distribution<int> pick(0, palette - 1);

    std::vector<Partitioner::Item> items(static_cast<size_t>(n));
    for (size_t i = 0; i < items.size(); ++i) {
      Partitioner::Item& item = items[i];
      item.compute = equal_compute ? computes[0] : computes[static_cast<size_t>(pick(rng))];
      item.params = params[static_cast<size_t>(pick(rng))];
      item.activation_out = 0;
      item.clean_boundary = boundaries == Boundaries::kAllClean ||
                            (boundaries == Boundaries::kAlternating && i % 2 == 0);
    }

    Partitioner partitioner(config);
    auto fast = partitioner.SolveChain(items, groups);
    auto reference = RefSolveChain(items, groups, config);
    ASSERT_EQ(fast, reference) << "trial " << trial << " n=" << n << " groups=" << groups;
    if (!fast.empty()) {
      ++feasible_cases;
    }
  }
  EXPECT_GT(feasible_cases, 150);
}

// The chains the simulator actually solves: each evaluation model's operator chain at
// the finest granularity, then every coarser rung BuildLadder cuts from the finest
// plan's stages. BuildLadder's plans must carry exactly the reference's ranges.
TEST(Partitioner, SolveChainMatchesNaiveReferenceOnEvaluationModels) {
  PartitionerConfig config;
  Partitioner partitioner(config);
  for (const ModelSpec& spec : EvaluationModels()) {
    ModelProfile profile = MakeProfile(spec);
    ComputationGraph graph = ComputationGraph::Build(spec);
    std::vector<Partitioner::Item> ops(profile.ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      ops[i].compute = profile.ops[i].compute_time;
      ops[i].params = profile.ops[i].param_bytes;
      ops[i].activation_out = profile.ops[i].activation_bytes;
      ops[i].clean_boundary = graph.ops()[i].block_boundary_after;
    }
    const int finest = config.ladder.back();
    auto finest_groups = partitioner.SolveChain(ops, finest);
    ASSERT_EQ(finest_groups, RefSolveChain(ops, finest, config)) << spec.name;
    ASSERT_FALSE(finest_groups.empty()) << spec.name;

    GranularityLadder ladder = partitioner.BuildLadder(profile);
    const PipelinePlan& finest_plan = ladder.plans.at(finest);
    ASSERT_EQ(finest_plan.num_stages(), finest);
    std::vector<Partitioner::Item> stages(static_cast<size_t>(finest));
    for (size_t s = 0; s < stages.size(); ++s) {
      const StagePlan& stage = finest_plan.stages[s];
      EXPECT_EQ(stage.op_begin, finest_groups[s].first) << spec.name;
      EXPECT_EQ(stage.op_end, finest_groups[s].second) << spec.name;
      stages[s].compute = stage.compute_time;
      stages[s].params = stage.param_bytes;
      stages[s].activation_out = stage.output_activation_bytes;
      stages[s].clean_boundary = stage.clean_boundary;
    }
    for (int g : config.ladder) {
      if (g == finest) {
        continue;
      }
      auto reference = RefSolveChain(stages, g, config);
      ASSERT_EQ(partitioner.SolveChain(stages, g), reference) << spec.name << " g=" << g;
      ASSERT_EQ(ladder.plans.count(g), reference.empty() ? 0u : 1u) << spec.name << " g=" << g;
      if (reference.empty()) {
        continue;
      }
      const PipelinePlan& plan = ladder.plans.at(g);
      ASSERT_EQ(plan.num_stages(), g);
      for (size_t s = 0; s < reference.size(); ++s) {
        EXPECT_EQ(plan.stages[s].fine_begin, reference[s].first) << spec.name << " g=" << g;
        EXPECT_EQ(plan.stages[s].fine_end, reference[s].second) << spec.name << " g=" << g;
      }
    }
  }
}

TEST(Partitioner, PlanDescribeIsHumanReadable) {
  ModelProfile profile = MakeProfile(Llama2_7B());
  Partitioner partitioner;
  PipelinePlan plan = partitioner.Partition(profile, 4);
  std::string desc = plan.Describe();
  EXPECT_NE(desc.find("LLAMA2-7B"), std::string::npos);
  EXPECT_NE(desc.find("4 stages"), std::string::npos);
}

}  // namespace
}  // namespace flexpipe
