// MigrationSession regression tests: the Eq. 10 validity-mask timing and the
// extracted-request accounting invariants (§6.3, Fig. 6(b)).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/cluster/network.h"
#include "src/cluster/topology.h"
#include "src/core/refactoring.h"
#include "src/model/profiler.h"
#include "src/partition/partitioner.h"
#include "src/runtime/instance.h"
#include "src/runtime/router.h"
#include "src/runtime/transfer.h"

namespace flexpipe {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : cluster_(EvalClusterConfig()),
        network_(&cluster_, NetworkConfig{}),
        transfer_(&sim_, &network_),
        router_(&sim_) {
    Profiler profiler(&cost_, Profiler::Config{});
    ComputationGraph graph = ComputationGraph::Build(Llama2_7B());
    profile_ = profiler.Profile(graph);
  }

  PipelinePlan MakePlan(int stages) {
    Partitioner partitioner;
    return partitioner.Partition(profile_, stages);
  }

  // `gpu_offset` keeps the two instances on disjoint GPUs so KV transfers cross a real
  // link (same-GPU transfers are instantaneous and would hide the delta phase).
  std::unique_ptr<PipelineInstance> MakeActiveInstance(int id, int stages, GpuId gpu_offset,
                                                       InstanceConfig config = InstanceConfig{}) {
    std::vector<GpuId> gpus;
    for (GpuId g = gpu_offset; g < gpu_offset + stages; ++g) {
      gpus.push_back(g);
    }
    auto inst = std::make_unique<PipelineInstance>(&sim_, id, MakePlan(stages), gpus, &cost_,
                                                   &network_, config);
    inst->BeginLoading({});
    sim_.RunUntil(inst->load_finish_time() + kMillisecond);
    return inst;
  }

  Request MakeRequest(RequestId id, int prompt, int output) {
    Request r;
    r.spec.id = id;
    r.spec.arrival = sim_.now();
    r.spec.prompt_tokens = prompt;
    r.spec.output_tokens = output;
    return r;
  }

  Simulation sim_;
  Cluster cluster_;
  NetworkModel network_;
  CostModel cost_;
  TransferEngine transfer_;
  Router router_;
  ModelProfile profile_;
};

TEST_F(MigrationTest, AccountingInvariantNoDoubleCount) {
  auto from = MakeActiveInstance(1, 2, 0);
  // Tiny target: capacity 2, so most decoding requests cannot fit and must restart.
  InstanceConfig tiny;
  tiny.per_group_capacity = 1;
  auto to = MakeActiveInstance(2, 2, 8, tiny);
  // The router stays empty so restarted/requeued requests remain parked in its queue
  // (their state at `done` time is exactly what the session handed back).

  // Six requests decode long enough that none completes before the cutover.
  std::vector<Request> reqs;
  reqs.reserve(10);
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 64, 4000));
  }
  // Four more arrive just before the migration; depending on iteration timing some
  // never reach prefill and must be counted as requeued, not restarted.
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(100 + i), 64, 4000));
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(from->CanAdmit(reqs[static_cast<size_t>(i)]));
    from->Admit(&reqs[static_cast<size_t>(i)]);
  }
  sim_.RunUntil(sim_.now() + 3 * kSecond);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(reqs[static_cast<size_t>(i)].phase, RequestPhase::kDecoding);
  }
  for (int i = 6; i < 10; ++i) {
    ASSERT_TRUE(from->CanAdmit(reqs[static_cast<size_t>(i)]));
    from->Admit(&reqs[static_cast<size_t>(i)]);
  }

  bool done = false;
  MigrationResult result;
  MigrationSession session(&sim_, &transfer_, from.get(), to.get(), &router_,
                           [&](PipelineInstance*, const MigrationResult& r) {
                             done = true;
                             result = r;
                           });
  session.Start();
  sim_.RunUntil(sim_.now() + kMinute);
  ASSERT_TRUE(done);

  // Every extracted request is counted exactly once across the three buckets. The
  // historical double-count inflated the sum by `restarted`, so forcing restarts (the
  // tiny target) makes this assertion a real regression guard.
  EXPECT_EQ(result.migrated_decoding + result.restarted + result.requeued, 10);
  EXPECT_GT(result.restarted, 0);
  EXPECT_GT(result.migrated_decoding, 0);
  // `requeued` must count exactly the requests that never executed on the source
  // (restarted ones accumulated exec time before losing their KV).
  int never_prefilled = 0;
  for (const Request& r : reqs) {
    never_prefilled += r.exec_ns == 0 ? 1 : 0;
  }
  EXPECT_EQ(result.requeued, never_prefilled);
}

TEST_F(MigrationTest, NeverStartedInstanceRequeuesEverything) {
  // Migrating away from an instance that never finished loading: every admitted
  // request is returned to the router untouched — requeued, nothing migrated.
  auto to = MakeActiveInstance(2, 2, 8);  // built first: its activation advances the clock
  auto from = std::make_unique<PipelineInstance>(&sim_, 1, MakePlan(2),
                                                 std::vector<GpuId>{0, 1}, &cost_, &network_,
                                                 InstanceConfig{});
  from->BeginLoading({});  // never run to completion

  std::vector<Request> reqs;
  reqs.reserve(5);
  for (int i = 0; i < 5; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 64, 50));
    ASSERT_TRUE(from->CanAdmit(reqs.back()));
    from->Admit(&reqs.back());
  }

  bool done = false;
  MigrationResult result;
  MigrationSession session(&sim_, &transfer_, from.get(), to.get(), &router_,
                           [&](PipelineInstance*, const MigrationResult& r) {
                             done = true;
                             result = r;
                           });
  session.Start();
  sim_.RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.requeued, 5);
  EXPECT_EQ(result.migrated_decoding, 0);
  EXPECT_EQ(result.restarted, 0);
  EXPECT_EQ(result.snapshot_bytes, 0);
  EXPECT_EQ(result.delta_bytes, 0);
}

TEST_F(MigrationTest, DeltaMaskStaysInvalidUntilTransferCompletes) {
  auto from = MakeActiveInstance(1, 4, 0);
  auto to = MakeActiveInstance(2, 4, 16);
  router_.RegisterInstance(to.get());

  // Rich KV state: the snapshot transfer takes long enough that tokens are generated
  // while it is in flight, producing an Eq. 10 delta whose transfer spans several
  // sampling steps below.
  std::vector<Request> reqs;
  reqs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 2000, 2000));
  }
  for (auto& r : reqs) {
    ASSERT_TRUE(from->CanAdmit(r));
    from->Admit(&r);
  }
  sim_.RunUntil(sim_.now() + 5 * kSecond);
  for (const auto& r : reqs) {
    ASSERT_EQ(r.phase, RequestPhase::kDecoding);
  }

  bool done = false;
  MigrationResult result;
  MigrationSession session(&sim_, &transfer_, from.get(), to.get(), &router_,
                           [&](PipelineInstance*, const MigrationResult& r) {
                             done = true;
                             result = r;
                           });
  session.Start();

  // Step the clock finely. Between the halt (source extracted, in-flight work gone)
  // and the delta transfer's completion, the tail tokens must still be mask-invalid —
  // marking them valid early would make the resume-time consistency check vacuous.
  const Request& probe = reqs.front();
  bool saw_invalid_tail_after_halt = false;
  while (!done) {
    sim_.RunUntil(sim_.now() + kMillisecond / 10);
    if (done) {
      break;
    }
    const KvValidityMask* mask = session.MaskFor(probe.spec.id);
    if (mask != nullptr && from->inflight() == 0 &&
        mask->invalid_in(0, std::min(probe.context_tokens(), mask->capacity())) > 0) {
      saw_invalid_tail_after_halt = true;
    }
  }
  ASSERT_TRUE(done);
  EXPECT_GT(result.delta_bytes, 0) << "no tokens generated during snapshot; test is vacuous";
  EXPECT_TRUE(saw_invalid_tail_after_halt)
      << "delta tail was marked valid before the delta transfer completed";
  // After resume, the whole context is valid for every migrated request.
  for (const auto& r : reqs) {
    const KvValidityMask* mask = session.MaskFor(r.spec.id);
    ASSERT_NE(mask, nullptr);
    EXPECT_EQ(mask->invalid_in(0, std::min(r.context_tokens(), mask->capacity())), 0);
  }
  EXPECT_GT(result.pause_duration, 0);
}

TEST_F(MigrationTest, AbortBeforeStartReclaimsNothing) {
  auto from = MakeActiveInstance(1, 2, 0);
  auto to = MakeActiveInstance(2, 2, 8);
  std::vector<Request> reqs;
  reqs.reserve(3);
  for (int i = 0; i < 3; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 64, 50));
    ASSERT_TRUE(from->CanAdmit(reqs.back()));
    from->Admit(&reqs.back());
  }

  bool done = false;
  MigrationSession session(&sim_, &transfer_, from.get(), to.get(), &router_,
                           [&](PipelineInstance*, const MigrationResult&) { done = true; });
  // Nothing was extracted yet: the requests still live on the source.
  EXPECT_TRUE(session.Abort().empty());
  EXPECT_TRUE(session.aborted());
  EXPECT_EQ(from->inflight() + from->pending(), 3);
  sim_.RunUntilIdle();
  EXPECT_FALSE(done);
}

TEST_F(MigrationTest, AbortDuringDeltaTransferReclaimsLimboExactlyOnce) {
  auto from = MakeActiveInstance(1, 4, 0);
  auto to = MakeActiveInstance(2, 4, 16);
  // Same rich KV state as DeltaMaskStaysInvalidUntilTransferCompletes: tokens generated
  // during the snapshot make the delta transfer long enough to abort into.
  std::vector<Request> reqs;
  reqs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 2000, 2000));
  }
  for (auto& r : reqs) {
    ASSERT_TRUE(from->CanAdmit(r));
    from->Admit(&r);
  }
  sim_.RunUntil(sim_.now() + 5 * kSecond);

  bool done = false;
  MigrationSession session(&sim_, &transfer_, from.get(), to.get(), &router_,
                           [&](PipelineInstance*, const MigrationResult&) { done = true; });
  session.Start();
  // Step until the source has halted and handed its requests over. The session is not
  // finished then only because the delta transfer is still in flight.
  while (!done && !(from->state() == InstanceState::kHalting && from->inflight() == 0)) {
    sim_.RunUntil(sim_.now() + kMillisecond / 10);
  }
  ASSERT_FALSE(done) << "no delta transfer to abort into; test is vacuous";

  std::vector<Request*> limbo = session.Abort();
  std::vector<RequestId> ids;
  for (const Request* r : limbo) {
    ids.push_back(r->spec.id);
    EXPECT_EQ(r->phase, RequestPhase::kDecoding);  // the caller applies its own policy
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RequestId>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(session.aborted());
  EXPECT_TRUE(session.Abort().empty());

  // The late delta callback must not resume, requeue or report anything.
  sim_.RunUntilIdle();
  EXPECT_FALSE(done);
  EXPECT_FALSE(session.finished());
  EXPECT_EQ(to->inflight() + to->pending(), 0);
  EXPECT_EQ(router_.queue_length(), 0);
}

TEST_F(MigrationTest, AbortAfterFinishReclaimsNothing) {
  auto from = MakeActiveInstance(1, 2, 0);
  auto to = MakeActiveInstance(2, 2, 8);
  std::vector<Request> reqs;
  reqs.reserve(3);
  for (int i = 0; i < 3; ++i) {
    reqs.push_back(MakeRequest(static_cast<RequestId>(i + 1), 64, 4000));
    ASSERT_TRUE(from->CanAdmit(reqs.back()));
    from->Admit(&reqs.back());
  }
  sim_.RunUntil(sim_.now() + 3 * kSecond);

  bool done = false;
  MigrationSession session(&sim_, &transfer_, from.get(), to.get(), &router_,
                           [&](PipelineInstance*, const MigrationResult&) { done = true; });
  session.Start();
  sim_.RunUntil(sim_.now() + kMinute);
  ASSERT_TRUE(done);
  ASSERT_TRUE(session.finished());
  EXPECT_TRUE(session.Abort().empty());
  EXPECT_FALSE(session.aborted());
}

}  // namespace
}  // namespace flexpipe
