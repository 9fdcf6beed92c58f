// Collective (tree) network model.
//
// On BG/P the tree connects compute nodes to their I/O node and has an
// ALU for combining operations. Two services are modelled:
//  - point-to-point packets CN <-> ION (the CIOD function-shipping
//    transport, paper Fig 2), with per-node uplink serialization;
//  - hardware combine/broadcast ("allreduce") over a participant group,
//    completing a fixed pipeline latency after the LAST contributor
//    arrives — which is exactly how OS noise on one node becomes
//    everyone's collective latency (paper §V-A/V-D).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "hw/link_fault.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace bg::hw {

struct CollPacket {
  int srcNode = 0;
  int dstNode = 0;
  std::uint32_t channel = 0;  // receiver demux tag
  std::vector<std::byte> payload;
};

class CollectiveNet {
 public:
  using PacketHandler = std::function<void(CollPacket&&)>;
  using ReduceHandler = std::function<void(const std::vector<double>&)>;

  explicit CollectiveNet(sim::Engine& engine) : engine_(engine) {}

  void setHandler(int nodeId, PacketHandler h) {
    handlers_[nodeId] = std::move(h);
  }

  /// Send a packet; delivery is scheduled per the latency/serialization
  /// model. Payload bytes are moved, not copied. When a fault model is
  /// attached (link key = source node id) the packet may be dropped
  /// (serialization is still charged — the bytes went onto the wire),
  /// corrupted in place, delayed, or delivered twice.
  void send(CollPacket packet);

  /// Attach a seeded fault model; nullptr detaches. Not owned.
  void setFaultModel(LinkFaultModel* m) { faults_ = m; }

  /// Contribute to a double-sum combine over `groupSize` participants
  /// identified by groupId. When the last contribution arrives, every
  /// contributor's handler fires after the pipeline latency.
  void contribute(std::uint64_t groupId, int nodeId,
                  std::vector<double> values, int groupSize,
                  ReduceHandler onResult);

  std::uint64_t packetsDelivered() const { return packetsDelivered_; }
  std::uint64_t bytesDelivered() const { return bytesDelivered_; }

 private:
  struct Reduction {
    std::vector<double> sum;
    int arrived = 0;
    int expected = 0;
    std::vector<std::pair<int, ReduceHandler>> waiters;
  };

  void deliver(CollPacket&& p);

  sim::Engine& engine_;
  LinkFaultModel* faults_ = nullptr;
  std::unordered_map<int, PacketHandler> handlers_;
  std::unordered_map<int, sim::Cycle> uplinkBusyUntil_;
  std::map<std::uint64_t, Reduction> reductions_;
  std::uint64_t packetsDelivered_ = 0;
  std::uint64_t bytesDelivered_ = 0;
};

}  // namespace bg::hw
