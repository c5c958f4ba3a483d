#include "src/partition/partitioner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/macros.h"

namespace flexpipe {

namespace {
constexpr double kInfeasible = std::numeric_limits<double>::infinity();
}

Partitioner::Partitioner(const PartitionerConfig& config) : config_(config) {
  FLEXPIPE_CHECK(!config_.ladder.empty());
  FLEXPIPE_CHECK(std::is_sorted(config_.ladder.begin(), config_.ladder.end()));
}

std::vector<std::pair<int, int>> Partitioner::SolveChain(const std::vector<Item>& items,
                                                         int groups) const {
  const int n = static_cast<int>(items.size());
  FLEXPIPE_CHECK(groups >= 1);
  FLEXPIPE_CHECK_MSG(groups <= n, "more stages than partitionable units");
  // Preconditions of the cost bound below (see partitioner.h).
  FLEXPIPE_CHECK(config_.interstage_bandwidth > 0 && config_.load_weight >= 0);

  // Prefix sums make any [j, i) group's compute/parameter totals O(1). Integer sums, so
  // the differences are exact — group costs are bit-identical to direct accumulation.
  std::vector<TimeNs> prefix_compute(static_cast<size_t>(n + 1), 0);
  std::vector<Bytes> prefix_params(static_cast<size_t>(n + 1), 0);
  for (int i = 0; i < n; ++i) {
    const Item& item = items[static_cast<size_t>(i)];
    FLEXPIPE_CHECK(item.compute >= 0 && item.params >= 0);
    prefix_compute[static_cast<size_t>(i + 1)] =
        prefix_compute[static_cast<size_t>(i)] + item.compute;
    prefix_params[static_cast<size_t>(i + 1)] = prefix_params[static_cast<size_t>(i)] + item.params;
  }
  double mean_cost = static_cast<double>(prefix_compute[static_cast<size_t>(n)]) / groups;
  const double overlap_ns = static_cast<double>(config_.overlap_target);

  // dp[k][i]: minimal max-group-cost splitting items [0, i) into k groups. The inner
  // split-point loop runs j *descending*, so the group [j, i) only grows and two exact
  // breaks end the scan: the memory cap and the cost bound (see partitioner.h).
  // Accepting ties with <= leaves the smallest feasible j as the recorded parent,
  // exactly like the naive ascending strict-< scan, so returned plans are identical.
  std::vector<std::vector<double>> dp(static_cast<size_t>(groups + 1),
                                      std::vector<double>(static_cast<size_t>(n + 1), kInfeasible));
  std::vector<std::vector<int>> parent(static_cast<size_t>(groups + 1),
                                       std::vector<int>(static_cast<size_t>(n + 1), -1));
  dp[0][0] = 0.0;
  for (int k = 1; k <= groups; ++k) {
    const std::vector<double>& prev = dp[static_cast<size_t>(k - 1)];
    std::vector<double>& cur = dp[static_cast<size_t>(k)];
    std::vector<int>& par = parent[static_cast<size_t>(k)];
    for (int i = k; i <= n - (groups - k); ++i) {
      // Eq. 2's terms fixed by the group's last item: the output activation's transfer
      // to the successor, and λ R(S_k) for a cut inside a transformer block.
      const Item& last = items[static_cast<size_t>(i - 1)];
      const double transfer =
          static_cast<double>(TransferTime(last.activation_out, config_.interstage_bandwidth));
      const double refactor_penalty =
          last.clean_boundary ? 0.0 : config_.lambda_refactor * mean_cost;
      double best = kInfeasible;
      int best_j = -1;
      for (int j = i - 1; j >= k - 1; --j) {
        if (prev[static_cast<size_t>(j)] == kInfeasible) {
          continue;
        }
        Bytes params =
            prefix_params[static_cast<size_t>(i)] - prefix_params[static_cast<size_t>(j)];
        if (params > config_.gpu_memory) {
          break;  // params only grow as j decreases: nothing below j is feasible either
        }
        double cost = static_cast<double>(prefix_compute[static_cast<size_t>(i)] -
                                          prefix_compute[static_cast<size_t>(j)]);
        cost += transfer;
        // (s_p / B - C)+ : parameter (re)load cost beyond what overlaps with compute.
        double load_ns = static_cast<double>(params) / config_.interstage_bandwidth * 1e9;
        cost += config_.load_weight * std::max(0.0, load_ns - overlap_ns);
        cost += refactor_penalty;
        if (cost > best) {
          break;  // the group cost only grows as j decreases: no smaller j ties best
        }
        double candidate = std::max(prev[static_cast<size_t>(j)], cost);
        if (candidate <= best) {
          best = candidate;
          best_j = j;
        }
      }
      cur[static_cast<size_t>(i)] = best;
      par[static_cast<size_t>(i)] = best_j;
    }
  }
  if (dp[static_cast<size_t>(groups)][static_cast<size_t>(n)] == kInfeasible) {
    return {};  // no feasible partition under the GPU memory cap
  }

  std::vector<std::pair<int, int>> result(static_cast<size_t>(groups));
  int i = n;
  for (int k = groups; k >= 1; --k) {
    int j = parent[static_cast<size_t>(k)][static_cast<size_t>(i)];
    FLEXPIPE_CHECK(j >= 0);
    result[static_cast<size_t>(k - 1)] = {j, i};
    i = j;
  }
  return result;
}

PipelinePlan Partitioner::PlanFromGroups(const ModelProfile& profile,
                                         const std::vector<Item>& items,
                                         const std::vector<std::pair<int, int>>& groups,
                                         const std::vector<int>* item_fine_index) const {
  PipelinePlan plan;
  plan.spec = profile.spec;
  plan.stages.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    auto [begin, end] = groups[g];
    StagePlan stage;
    stage.op_begin = items[static_cast<size_t>(begin)].op_begin;
    stage.op_end = items[static_cast<size_t>(end - 1)].op_end;
    for (int i = begin; i < end; ++i) {
      stage.param_bytes += items[static_cast<size_t>(i)].params;
      stage.compute_time += items[static_cast<size_t>(i)].compute;
    }
    const Item& last = items[static_cast<size_t>(end - 1)];
    stage.output_activation_bytes = (g + 1 < groups.size()) ? last.activation_out : 0;
    stage.clean_boundary = last.clean_boundary;
    if (item_fine_index != nullptr) {
      stage.fine_begin = (*item_fine_index)[static_cast<size_t>(begin)];
      stage.fine_end = (*item_fine_index)[static_cast<size_t>(end - 1)] + 1;
    } else {
      stage.fine_begin = static_cast<int>(g);
      stage.fine_end = static_cast<int>(g) + 1;
    }
    plan.stages.push_back(stage);
  }
  return plan;
}

PipelinePlan Partitioner::Partition(const ModelProfile& profile, int num_stages) const {
  FLEXPIPE_CHECK(!profile.ops.empty());
  ComputationGraph graph = ComputationGraph::Build(profile.spec);
  FLEXPIPE_CHECK(graph.op_count() == static_cast<int>(profile.ops.size()));

  std::vector<Item> items;
  items.reserve(profile.ops.size());
  for (size_t i = 0; i < profile.ops.size(); ++i) {
    Item item;
    item.compute = profile.ops[i].compute_time;
    item.params = profile.ops[i].param_bytes;
    item.activation_out = profile.ops[i].activation_bytes;
    item.clean_boundary = graph.ops()[i].block_boundary_after;
    item.op_begin = static_cast<int>(i);
    item.op_end = static_cast<int>(i) + 1;
    items.push_back(item);
  }
  auto groups = SolveChain(items, num_stages);
  FLEXPIPE_CHECK_MSG(!groups.empty(), "no feasible partition under GPU memory cap");
  return PlanFromGroups(profile, items, groups, nullptr);
}

GranularityLadder Partitioner::BuildLadder(const ModelProfile& profile) const {
  GranularityLadder ladder;
  ladder.spec = profile.spec;

  int finest = config_.ladder.back();
  PipelinePlan finest_plan = Partition(profile, finest);
  ladder.plans[finest] = finest_plan;

  // Coarser plans merge contiguous finest stages — nesting by construction.
  std::vector<Item> items;
  std::vector<int> fine_index;
  items.reserve(finest_plan.stages.size());
  for (size_t i = 0; i < finest_plan.stages.size(); ++i) {
    const StagePlan& s = finest_plan.stages[i];
    Item item;
    item.compute = s.compute_time;
    item.params = s.param_bytes;
    item.activation_out = s.output_activation_bytes;
    item.clean_boundary = s.clean_boundary;
    item.op_begin = s.op_begin;
    item.op_end = s.op_end;
    items.push_back(item);
    fine_index.push_back(static_cast<int>(i));
  }
  for (int g : config_.ladder) {
    if (g == finest) {
      ladder.granularities.push_back(g);
      continue;
    }
    auto groups = SolveChain(items, g);
    if (groups.empty()) {
      // Granularity infeasible for this model on these GPUs (e.g. OPT-66B needs at
      // least 4 stages on 40 GB devices); the ladder simply starts finer.
      continue;
    }
    ladder.granularities.push_back(g);
    ladder.plans[g] = PlanFromGroups(profile, items, groups, &fine_index);
  }
  std::sort(ladder.granularities.begin(), ladder.granularities.end());
  FLEXPIPE_CHECK(!ladder.granularities.empty());
  FLEXPIPE_CHECK(ladder.IsNested());
  return ladder;
}

}  // namespace flexpipe
