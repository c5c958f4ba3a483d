// Hierarchical network/transfer model.
//
// Transfers between pipeline stages, KV-cache migrations and parameter loads all resolve
// to a (latency, bandwidth) pair determined by where the endpoints sit in the topology:
// same server (PCIe), same rack (NIC / ToR), across racks (oversubscribed spine), or
// remote storage (parameter fetches). Concurrent flows on the same tier fair-share
// bandwidth; the share is fixed at flow start, which keeps the DES simple and errs
// pessimistically for short flows (documented deviation).
//
// §8 of the paper contrasts NCCL connection setup (seconds) with an RDMA/sendfile path
// (microseconds); TransferSetupTime models that difference.
#ifndef FLEXPIPE_SRC_CLUSTER_NETWORK_H_
#define FLEXPIPE_SRC_CLUSTER_NETWORK_H_

#include "src/cluster/topology.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"

namespace flexpipe {

enum class LinkTier : int {
  kSameGpu = 0,     // no transfer needed
  kIntraServer = 1, // PCIe between GPUs in one server
  kIntraRack = 2,   // NIC + top-of-rack switch
  kInterRack = 3,   // spine, oversubscribed
  kStorage = 4,     // remote parameter store -> server
};

enum class TransferProtocol : int {
  kRdma = 0,      // hierarchical RDMA path (FlexPipe's implementation, §8)
  kNcclStyle = 1, // collective-library connection with expensive setup
  kSendfile = 2,  // kernel-space fallback for machines without RDMA
};

struct NetworkConfig {
  BytesPerSec pcie_bandwidth = GiBps(24.0);      // PCIe 4.0 x16 effective
  BytesPerSec nic_bandwidth = GbpsToBytesPerSec(100.0);
  BytesPerSec inter_rack_bandwidth = GbpsToBytesPerSec(40.0);  // 2.5:1 oversubscription
  BytesPerSec storage_stream_bandwidth = GiBps(1.5);  // per parallel fetch stream

  TimeNs pcie_latency = FromMicros(5);
  TimeNs intra_rack_latency = FromMicros(20);
  TimeNs inter_rack_latency = FromMicros(60);
  TimeNs storage_latency = FromMillis(2);

  TimeNs rdma_setup = FromMicros(50);
  TimeNs nccl_setup = FromSeconds(2.5);  // §8: "several seconds"
  TimeNs sendfile_setup = FromMicros(200);

  double rdma_fraction = 0.8;  // fraction of servers with RDMA NICs
};

class FLEXPIPE_THREAD_HOSTILE NetworkModel {
 public:
  NetworkModel(const Cluster* cluster, const NetworkConfig& config);

  LinkTier TierBetween(GpuId a, GpuId b) const;

  BytesPerSec Bandwidth(LinkTier tier) const;
  TimeNs Latency(LinkTier tier) const;
  TimeNs SetupTime(TransferProtocol protocol) const;

  // Flow accounting for contention: callers register flows for their duration.
  void AddFlow(LinkTier tier);
  void RemoveFlow(LinkTier tier);

  // Effective bandwidth after fair-sharing with active flows (the new flow included).
  BytesPerSec EffectiveBandwidth(LinkTier tier) const;

  const NetworkConfig& config() const { return config_; }
  // Topology the model prices against; degradation-aware callers read per-server
  // perf/link factors through it.
  const Cluster* cluster() const { return cluster_; }

 private:
  const Cluster* cluster_;
  NetworkConfig config_;
  int flows_[5] = {0, 0, 0, 0, 0};
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_CLUSTER_NETWORK_H_
