// Machine assembly: compute nodes + I/O nodes wired to the three
// networks, plus service-node style control (reset, boot ordering).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/barrier_net.hpp"
#include "hw/collective.hpp"
#include "hw/link_fault.hpp"
#include "hw/mem_fault.hpp"
#include "hw/node.hpp"
#include "hw/torus.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace bg::hw {

/// I/O nodes share the network id space with compute nodes, offset so
/// the two populations never collide.
inline constexpr int kIoNodeIdBase = 100000;

struct MachineConfig {
  int computeNodes = 1;
  int ioNodes = 1;
  int computeNodesPerIoNode = 64;  // pset size (BG/P: 16..128)
  /// Cold spare I/O nodes (net ids follow the primaries). A spare has
  /// no pset of its own; the cluster activates one when a primary's
  /// CIOD dies and re-homes the pset onto it.
  int spareIoNodes = 0;
  NodeConfig node;
  TorusConfig torus;              // dims default derived if {1,1,1}
  /// Seeded link-fault injection (defaults: all rates zero = off, no
  /// RNG draws, bit-identical to a fault-free build).
  LinkFaultRates collectiveFaults;
  LinkFaultRates torusFaults;
  /// Seeded compute-node memory/CPU fault injection (same contract:
  /// all-zero defaults draw nothing and change nothing).
  MemFaultRates memFaults;
  std::uint64_t seed = 42;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Engine& engine() { return engine_; }
  const MachineConfig& config() const { return cfg_; }

  int numComputeNodes() const { return static_cast<int>(compute_.size()); }
  /// Primary I/O nodes only; the pset mapping never lands on a spare.
  int numIoNodes() const { return cfg_.ioNodes; }
  int numSpareIoNodes() const { return cfg_.spareIoNodes; }
  Node& node(int i) { return *compute_[static_cast<std::size_t>(i)]; }
  Node& ioNode(int i) { return *io_[static_cast<std::size_t>(i)]; }
  /// Spare s lives at net id kIoNodeIdBase + numIoNodes() + s.
  Node& spareIoNode(int s) {
    return *io_[static_cast<std::size_t>(cfg_.ioNodes + s)];
  }

  /// The I/O node serving a given compute node (pset mapping).
  int ioNodeIndexFor(int computeNodeId) const {
    return computeNodeId / cfg_.computeNodesPerIoNode % std::max(1, numIoNodes());
  }
  /// Network id of that I/O node.
  int ioNodeNetIdFor(int computeNodeId) const {
    return kIoNodeIdBase + ioNodeIndexFor(computeNodeId);
  }

  CollectiveNet& collective() { return collective_; }
  TorusNet& torus() { return torus_; }
  BarrierNet& barrier() { return barrier_; }

  /// Seeded fault models wired into the two packet networks. Rates
  /// default from the config; tests may tighten/loosen them per link
  /// at any time (deterministically — the RNG stream is the seed's).
  LinkFaultModel& collectiveFaults() { return collFaults_; }
  LinkFaultModel& torusFaults() { return torusFaults_; }

  /// Seeded compute-node fault model (ECC/parity).
  /// Read-only: its rates come from the config, and the nodes cache
  /// armed flags derived from them for the hot paths.
  const MemFaultModel& memFaults() const { return memFaults_; }

  std::uint64_t seed() const { return cfg_.seed; }

  /// Service-node control hook: pull one compute node through a
  /// hardware reset (flush caches to DDR, DDR self-refresh, restart,
  /// TLBs invalidated). The kernel must be quiesced first — the
  /// control system kills/unloads the node's job before resetting.
  void resetNode(int i);

  /// Logic-scan digest over the whole machine at the current cycle.
  std::uint64_t scanHash() const;

 private:
  static MachineConfig normalize(MachineConfig cfg);

  MachineConfig cfg_;
  sim::Engine engine_;
  CollectiveNet collective_;
  TorusNet torus_;
  BarrierNet barrier_;
  LinkFaultModel collFaults_;
  LinkFaultModel torusFaults_;
  MemFaultModel memFaults_;
  std::vector<std::unique_ptr<Node>> compute_;
  std::vector<std::unique_ptr<Node>> io_;  // primaries, then spares
};

}  // namespace bg::hw
