#include "src/cluster/network.h"

#include <algorithm>

#include "src/common/macros.h"

namespace flexpipe {

NetworkModel::NetworkModel(const Cluster* cluster, const NetworkConfig& config)
    : cluster_(cluster), config_(config) {
  FLEXPIPE_CHECK(cluster != nullptr);
}

LinkTier NetworkModel::TierBetween(GpuId a, GpuId b) const {
  if (a == b) {
    return LinkTier::kSameGpu;
  }
  if (cluster_->SameServer(a, b)) {
    return LinkTier::kIntraServer;
  }
  if (cluster_->SameRack(a, b)) {
    return LinkTier::kIntraRack;
  }
  return LinkTier::kInterRack;
}

BytesPerSec NetworkModel::Bandwidth(LinkTier tier) const {
  switch (tier) {
    case LinkTier::kSameGpu:
      return GiBps(1000.0);  // device-local copy, effectively free at our scale
    case LinkTier::kIntraServer:
      return config_.pcie_bandwidth;
    case LinkTier::kIntraRack:
      return config_.nic_bandwidth;
    case LinkTier::kInterRack:
      return config_.inter_rack_bandwidth;
    case LinkTier::kStorage:
      return config_.storage_stream_bandwidth;
  }
  return config_.inter_rack_bandwidth;
}

TimeNs NetworkModel::Latency(LinkTier tier) const {
  switch (tier) {
    case LinkTier::kSameGpu:
      return 0;
    case LinkTier::kIntraServer:
      return config_.pcie_latency;
    case LinkTier::kIntraRack:
      return config_.intra_rack_latency;
    case LinkTier::kInterRack:
      return config_.inter_rack_latency;
    case LinkTier::kStorage:
      return config_.storage_latency;
  }
  return config_.inter_rack_latency;
}

TimeNs NetworkModel::SetupTime(TransferProtocol protocol) const {
  switch (protocol) {
    case TransferProtocol::kRdma:
      return config_.rdma_setup;
    case TransferProtocol::kNcclStyle:
      return config_.nccl_setup;
    case TransferProtocol::kSendfile:
      return config_.sendfile_setup;
  }
  return config_.sendfile_setup;
}

void NetworkModel::AddFlow(LinkTier tier) { ++flows_[static_cast<int>(tier)]; }

void NetworkModel::RemoveFlow(LinkTier tier) {
  int& f = flows_[static_cast<int>(tier)];
  FLEXPIPE_CHECK(f > 0);
  --f;
}

BytesPerSec NetworkModel::EffectiveBandwidth(LinkTier tier) const {
  int sharers = std::max(1, flows_[static_cast<int>(tier)] + 1);
  return Bandwidth(tier) / static_cast<double>(sharers);
}

}  // namespace flexpipe
