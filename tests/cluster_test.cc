#include <gtest/gtest.h>

#include "src/cluster/allocator.h"
#include "src/cluster/fragmentation.h"
#include "src/cluster/network.h"
#include "src/cluster/topology.h"
#include "src/common/stats.h"

namespace flexpipe {
namespace {

TEST(Topology, EvalClusterHas82GpusAnd42Servers) {
  Cluster cluster(EvalClusterConfig());
  EXPECT_EQ(cluster.gpu_count(), 82);
  EXPECT_EQ(cluster.server_count(), 42);
  EXPECT_EQ(cluster.rack_count(), 6);
}

TEST(Topology, MeasurementClustersMatchTable1Shape) {
  Cluster c1(MeasurementClusterC1());
  EXPECT_EQ(c1.server_count(), 430);
  EXPECT_EQ(c1.gpu_count(), 468);
  Cluster c2(MeasurementClusterC2());
  EXPECT_EQ(c2.server_count(), 930);  // within 0.5% of the paper's 927
  EXPECT_EQ(c2.gpu_count(), 1175);
}

TEST(Topology, ReserveReleaseAccounting) {
  Cluster cluster(EvalClusterConfig());
  Gpu& gpu = cluster.gpu(0);
  Bytes before = gpu.free_memory();
  gpu.Reserve(GiB(10), 0.5);
  EXPECT_EQ(gpu.free_memory(), before - GiB(10));
  EXPECT_DOUBLE_EQ(gpu.reserved_sm(), 0.5);
  gpu.Release(GiB(10), 0.5);
  EXPECT_EQ(gpu.free_memory(), before);
  EXPECT_DOUBLE_EQ(gpu.sm_utilization(), 0.0);
}

TEST(Topology, BackgroundNeverEvictsReservation) {
  Cluster cluster(EvalClusterConfig());
  Gpu& gpu = cluster.gpu(0);
  gpu.Reserve(GiB(30), 0.5);
  gpu.SetBackground(GiB(100), 0.3, 2);  // asks for more than remaining
  EXPECT_LE(gpu.used_memory(), gpu.memory_capacity());
  EXPECT_EQ(gpu.reserved_memory(), GiB(30));
}

TEST(Topology, SameServerAndRackRelations) {
  Cluster cluster(EvalClusterConfig());
  for (ServerId s = 0; s < cluster.server_count(); ++s) {
    const Server& server = cluster.server(s);
    for (size_t i = 1; i < server.gpus.size(); ++i) {
      EXPECT_TRUE(cluster.SameServer(server.gpus[0], server.gpus[i]));
      EXPECT_TRUE(cluster.SameRack(server.gpus[0], server.gpus[i]));
    }
  }
}

TEST(Topology, FailureDomainsPartitionTheCluster) {
  ClusterConfig config = EvalClusterConfig();
  Cluster cluster(config);

  // Power domains tile the rack id space in order: 6 racks / 2 per domain = 3 domains,
  // and together they cover every rack exactly once.
  EXPECT_EQ(cluster.power_domain_count(), 3);
  int racks_covered = 0;
  for (PowerDomainId d = 0; d < cluster.power_domain_count(); ++d) {
    for (RackId r : cluster.PowerDomainRacks(d)) {
      EXPECT_EQ(r / config.racks_per_power_domain, d);
      ++racks_covered;
    }
  }
  EXPECT_EQ(racks_covered, cluster.rack_count());

  // Every server's cached domain ids agree with the membership lists, and thermal
  // zones never cross a rack boundary (airflow is per-rack).
  int servers_covered = 0;
  for (ThermalZoneId z = 0; z < cluster.thermal_zone_count(); ++z) {
    const std::vector<ServerId>& members = cluster.ThermalZoneServers(z);
    ASSERT_FALSE(members.empty());
    ASSERT_LE(static_cast<int>(members.size()), config.servers_per_thermal_zone);
    for (ServerId s : members) {
      EXPECT_EQ(cluster.ThermalZoneOf(s), z);
      EXPECT_EQ(cluster.RackOf(members[0]), cluster.RackOf(s));
      ++servers_covered;
    }
  }
  EXPECT_EQ(servers_covered, cluster.server_count());
  for (ServerId s = 0; s < cluster.server_count(); ++s) {
    EXPECT_EQ(cluster.PowerDomainOf(s),
              cluster.RackOf(s) / config.racks_per_power_domain);
  }

  // Deterministic derivation: the same config always yields the same domains.
  Cluster again(config);
  for (ServerId s = 0; s < cluster.server_count(); ++s) {
    EXPECT_EQ(cluster.PowerDomainOf(s), again.PowerDomainOf(s));
    EXPECT_EQ(cluster.ThermalZoneOf(s), again.ThermalZoneOf(s));
  }
}

TEST(Topology, DegenerateDomainShapesClampToOne) {
  ClusterConfig config = EvalClusterConfig();
  config.racks_per_power_domain = 0;   // clamped to 1: one domain per rack
  config.servers_per_thermal_zone = 0; // clamped to 1: one zone per server
  Cluster cluster(config);
  EXPECT_EQ(cluster.power_domain_count(), cluster.rack_count());
  EXPECT_EQ(cluster.thermal_zone_count(), cluster.server_count());
}

TEST(Topology, HostMemoryReservation) {
  Cluster cluster(EvalClusterConfig());
  EXPECT_TRUE(cluster.TryReserveHostMemory(0, GiB(100)));
  EXPECT_TRUE(cluster.TryReserveHostMemory(0, GiB(100)));
  EXPECT_FALSE(cluster.TryReserveHostMemory(0, GiB(100)));  // 256 GiB capacity
  cluster.ReleaseHostMemory(0, GiB(100));
  EXPECT_TRUE(cluster.TryReserveHostMemory(0, GiB(100)));
}

TEST(Fragmentation, C1StatisticsMatchTable1) {
  Cluster cluster(MeasurementClusterC1());
  FragmentationGenerator frag(&cluster, ProfileClusterC1(), 17);
  frag.ApplySnapshot();

  std::vector<double> mem;
  std::vector<double> sm;
  for (GpuId id : cluster.AllGpuIds()) {
    mem.push_back(cluster.gpu(id).memory_utilization());
    sm.push_back(cluster.gpu(id).sm_utilization());
  }
  // Table 1, cluster C1: mem mean 43.5%, P50 28.8%, P95 99.1%; SM mean 16.9%.
  EXPECT_NEAR(cluster.MeanMemoryUtilization(), 0.435, 0.08);
  EXPECT_NEAR(Percentile(mem, 50), 0.288, 0.10);
  EXPECT_GT(Percentile(mem, 95), 0.90);
  EXPECT_NEAR(cluster.MeanSmUtilization(), 0.169, 0.06);
  // ~216% subscription.
  EXPECT_NEAR(cluster.MeanSubscriptionRate(), 2.16, 0.5);
}

TEST(Fragmentation, ColocationIsRare) {
  // §3.1: co-locating 4 free GPUs on one server is a ~0.02% event; with C1's mostly
  // 1-2 GPU servers it should essentially never happen.
  Cluster cluster(MeasurementClusterC1());
  FragmentationGenerator frag(&cluster, ProfileClusterC1(), 23);
  int hits = 0;
  for (int trial = 0; trial < 50; ++trial) {
    frag.ApplySnapshot();
    if (cluster.BestColocatedGroup(GiB(34)).size() >= 4) {
      ++hits;
    }
  }
  EXPECT_EQ(hits, 0);
}

TEST(Fragmentation, ChurnChangesOnlyAFraction) {
  Cluster cluster(EvalClusterConfig());
  FragmentationGenerator frag(&cluster, ProfileClusterC1(), 31);
  frag.ApplySnapshot();
  std::vector<Bytes> before;
  for (GpuId id : cluster.AllGpuIds()) {
    before.push_back(cluster.gpu(id).background_memory());
  }
  frag.ChurnStep(0.1);
  int changed = 0;
  for (GpuId id : cluster.AllGpuIds()) {
    if (cluster.gpu(id).background_memory() != before[static_cast<size_t>(id)]) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0);
  EXPECT_LT(changed, cluster.gpu_count() / 2);
}

TEST(Network, TierSelection) {
  Cluster cluster(EvalClusterConfig());
  NetworkModel net(&cluster, NetworkConfig{});
  // Find a 2-GPU server for the intra-server case.
  GpuId a = kInvalidGpu;
  GpuId b = kInvalidGpu;
  for (ServerId s = 0; s < cluster.server_count(); ++s) {
    if (cluster.server(s).gpus.size() >= 2) {
      a = cluster.server(s).gpus[0];
      b = cluster.server(s).gpus[1];
      break;
    }
  }
  ASSERT_NE(a, kInvalidGpu);
  EXPECT_EQ(net.TierBetween(a, a), LinkTier::kSameGpu);
  EXPECT_EQ(net.TierBetween(a, b), LinkTier::kIntraServer);
  EXPECT_GT(net.Bandwidth(LinkTier::kIntraServer), net.Bandwidth(LinkTier::kIntraRack));
  EXPECT_GT(net.Bandwidth(LinkTier::kIntraRack), net.Bandwidth(LinkTier::kInterRack));
  EXPECT_LT(net.Latency(LinkTier::kIntraServer), net.Latency(LinkTier::kInterRack));
}

TEST(Network, FlowSharingHalvesBandwidth) {
  Cluster cluster(EvalClusterConfig());
  NetworkModel net(&cluster, NetworkConfig{});
  double solo = net.EffectiveBandwidth(LinkTier::kIntraRack);
  net.AddFlow(LinkTier::kIntraRack);
  double shared = net.EffectiveBandwidth(LinkTier::kIntraRack);
  EXPECT_NEAR(shared, solo / 2.0, solo * 0.01);
  net.RemoveFlow(LinkTier::kIntraRack);
  EXPECT_DOUBLE_EQ(net.EffectiveBandwidth(LinkTier::kIntraRack), solo);
}

TEST(Network, NcclSetupDwarfsRdma) {
  Cluster cluster(EvalClusterConfig());
  NetworkModel net(&cluster, NetworkConfig{});
  EXPECT_GT(net.SetupTime(TransferProtocol::kNcclStyle),
            1000 * net.SetupTime(TransferProtocol::kRdma));
}

TEST(Allocator, AllocatesAndReleases) {
  Cluster cluster(EvalClusterConfig());
  ClusterAllocator alloc(&cluster, AllocatorConfig{}, 3);
  AllocationRequest req;
  req.gpu_count = 4;
  req.bytes_per_gpu = GiB(10);
  req.distinct_servers = true;
  AllocationResult result = alloc.Allocate(req);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.gpus.size(), 4u);
  EXPECT_GT(result.provisioning_delay, kSecond / 2);
  // Distinct servers honored.
  for (size_t i = 0; i < result.gpus.size(); ++i) {
    for (size_t j = i + 1; j < result.gpus.size(); ++j) {
      EXPECT_FALSE(cluster.SameServer(result.gpus[i], result.gpus[j]));
    }
  }
  for (GpuId id : result.gpus) {
    cluster.gpu(id).Release(req.bytes_per_gpu, req.sm_per_gpu);
    EXPECT_EQ(cluster.gpu(id).reserved_memory(), 0);
  }
}

TEST(Allocator, FailsWhenClusterSaturated) {
  Cluster cluster(EvalClusterConfig());
  for (GpuId id : cluster.AllGpuIds()) {
    cluster.gpu(id).SetBackground(GiB(39), 0.9, 3);
  }
  ClusterAllocator alloc(&cluster, AllocatorConfig{}, 3);
  AllocationRequest req;
  req.gpu_count = 1;
  req.bytes_per_gpu = GiB(10);
  AllocationResult result = alloc.Allocate(req);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(alloc.failed_requests(), 1);
}

TEST(Allocator, BestFitPacksTightest) {
  Cluster cluster(EvalClusterConfig());
  cluster.gpu(0).SetBackground(GiB(25), 0.2, 1);  // 15 free — tightest fit for 10
  ClusterAllocator alloc(&cluster, AllocatorConfig{}, 3);
  AllocationRequest req;
  req.gpu_count = 1;
  req.bytes_per_gpu = GiB(10);
  req.policy = PlacementPolicy::kBestFit;
  AllocationResult result = alloc.Allocate(req);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.gpus[0], 0);
}

}  // namespace
}  // namespace flexpipe
