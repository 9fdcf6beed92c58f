// 3-D torus network with a per-node DMA engine.
//
// The torus is the point-to-point fabric DCMF drives *from user space*
// (paper §V-C): the kernel's only involvement is having set up the
// static physical mapping that lets the application hand physical
// addresses to the DMA. dmaPut/dmaGet move real bytes between nodes'
// physical memories. Links are dimension-order routed with per-link
// serialization, so near-neighbour exchanges saturate per-link
// bandwidth the way Fig 8 shows.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "hw/addr.hpp"
#include "hw/link_fault.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace bg::hw {

class Node;

struct TorusConfig {
  std::array<int, 3> dims{1, 1, 1};
};

// Link and DMA timing; the messaging layers (DCMF, ARMCI) charge the
// same costs for their software-visible halves of a transfer.
inline constexpr sim::Cycle kTorusHopLatency = 85;      // ~100ns at 850MHz
inline constexpr double kTorusBytesPerCycle = 0.5;      // 425MB/s per link
inline constexpr sim::Cycle kTorusDmaInjectCost = 180;  // source descriptor
inline constexpr sim::Cycle kTorusDmaRecvCost = 120;    // reception FIFO

/// Small control/eager packet delivered to the destination node's
/// registered handler (the messaging runtime).
struct TorusPacket {
  int srcNode = 0;
  int dstNode = 0;
  std::uint32_t tag = 0;
  std::vector<std::byte> payload;
};

class TorusNet {
 public:
  using PacketHandler = std::function<void(TorusPacket&&)>;

  TorusNet(sim::Engine& engine, const TorusConfig& cfg)
      : engine_(engine), cfg_(cfg) {}

  /// Register a node (gives the net access to its physical memory for
  /// DMA) and assign its coordinates from its id.
  void attachNode(int nodeId, Node* node);

  void setPacketHandler(int nodeId, PacketHandler h) {
    handlers_[nodeId] = std::move(h);
  }

  /// Memory-mapped eager/control packet send (no kernel involvement).
  void sendPacket(TorusPacket packet);

  /// Remote write: copy `bytes` from srcNode:srcPa to dstNode:dstPa.
  /// onRemoteDelivered fires at the destination when the payload has
  /// landed; onLocalComplete fires at the source when its injection
  /// FIFO drains (the "message sent" completion counter).
  void dmaPut(int srcNode, PAddr srcPa, int dstNode, PAddr dstPa,
              std::uint64_t bytes, std::function<void()> onRemoteDelivered,
              std::function<void()> onLocalComplete);

  /// Remote read: fetch `bytes` from dstNode:remotePa into
  /// srcNode:localPa. Completion fires at the requester.
  void dmaGet(int srcNode, PAddr localPa, int dstNode, PAddr remotePa,
              std::uint64_t bytes, std::function<void()> onComplete);

  /// Attach a seeded fault model; nullptr detaches. Not owned. Torus
  /// links carry hardware CRC + link-level retransmit (as on BG/P), so
  /// drops and corruptions never reach software: they surface as a
  /// deterministic retry *delay* on the transfer (serialization +
  /// NACK turnaround), and duplicates are absorbed by the link layer.
  /// Link key for per-link overrides: source node id << 3.
  void setFaultModel(LinkFaultModel* m) { faults_ = m; }

  // --- hard directed-link faults + deterministic route-around --------

  /// Fired when a directed link hard-faults: killLink reports
  /// dead = true, degradeLink dead = false. The cluster harness wires
  /// this to the source node's kernel RAS log (kLinkDead /
  /// kLinkDegraded) so the control plane can react.
  using LinkEventHandler =
      std::function<void(int srcNode, int dim, bool positive, bool dead)>;
  void setLinkEventHandler(LinkEventHandler h) {
    linkEvent_ = std::move(h);
  }

  /// Fail-stop the directed link leaving `nodeId` in `dim` towards
  /// `positive`. Routing recomputes a deterministic detour table (BFS
  /// shortest path over the healthy directed-link graph, fixed
  /// neighbor order, so the same fault set always yields the same
  /// routes). Returns false for a nonexistent link (bad dim, a
  /// size-1 ring) or one that is already dead.
  bool killLink(int nodeId, int dim, bool positive);

  /// Degrade the directed link: every traversal pays `retries` CRC
  /// retransmit rounds (re-serialization + NACK turnaround each), and
  /// the retries are charged to the fault model's crcRetries counter.
  /// retries <= 0 heals the link. Returns false for a nonexistent
  /// link.
  bool degradeLink(int nodeId, int dim, bool positive, int retries);

  /// Transfers that left the minimal dimension-order route because a
  /// dead link forced a detour, and the extra hops they paid.
  std::uint64_t detours() const { return detours_; }
  std::uint64_t detourHops() const { return detourHops_; }
  /// Transfers dropped because no healthy route reached the
  /// destination (the packet vanishes; DMA local completion still
  /// fires so injection FIFOs drain).
  std::uint64_t unroutable() const { return unroutable_; }

  /// Fault-aware hop count: with no dead links this is the minimal
  /// wraparound distance; with dead links it is the length of the
  /// detour route actually taken, or -1 when `b` is unreachable
  /// from `a`.
  int hops(int a, int b) const;
  sim::Engine& engine() { return engine_; }
  std::uint64_t bytesMoved() const { return bytesMoved_; }

 private:
  /// reserveRoute's arrive value for an unreachable destination.
  static constexpr sim::Cycle kUnreachable = static_cast<sim::Cycle>(-1);

  std::array<int, 3> coordsOf(int nodeId) const;
  int nodeIdOf(const std::array<int, 3>& c) const {
    return c[0] + cfg_.dims[0] * (c[1] + cfg_.dims[1] * c[2]);
  }
  /// One traversed directed link on a detour route.
  struct Hop {
    int node;
    int dim;
    bool positive;
  };
  int neighborOf(int nodeId, int dim, bool positive) const;
  /// Deterministic detour route over the healthy directed-link graph
  /// (BFS shortest path, fixed neighbor order), cached per (src, dst)
  /// and invalidated on link death. nullptr = unreachable.
  const std::vector<Hop>* routeFor(int src, int dst) const;
  /// Minimal wraparound distance, ignoring link health.
  int minimalHops(int a, int b) const;
  /// Reserve the dimension-order route; returns (start, arrive) cycles.
  /// arrive == kUnreachable when every healthy route to dst is gone.
  std::pair<sim::Cycle, sim::Cycle> reserveRoute(int src, int dst,
                                                 std::uint64_t bytes);
  /// Extra cycles the link layer spends recovering from injected
  /// faults on this transfer (0 when no model or no fault).
  sim::Cycle faultRecoveryDelay(int srcNode, std::uint64_t bytes);

  sim::Engine& engine_;
  TorusConfig cfg_;
  LinkFaultModel* faults_ = nullptr;
  LinkEventHandler linkEvent_;
  std::unordered_map<int, Node*> nodes_;
  std::unordered_map<int, PacketHandler> handlers_;
  // Directed link key: (nodeId << 3) | (dim << 1) | direction.
  std::unordered_map<std::uint64_t, sim::Cycle> linkBusyUntil_;
  // (src << 32) | dst -> detour route; entries absent until first use,
  // empty vector = cached "unreachable". Cleared on every killLink.
  mutable std::map<std::uint64_t, std::vector<Hop>> routeCache_;
  std::uint64_t bytesMoved_ = 0;
  std::uint64_t detours_ = 0;
  std::uint64_t detourHops_ = 0;
  std::uint64_t unroutable_ = 0;
};

}  // namespace bg::hw
