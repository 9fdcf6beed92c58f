// Global barrier/interrupt network.
//
// A dedicated low-latency network whose arbiters CNK keeps in a known
// state across reproducible reboots so that multichip packet transfers
// can be re-aligned cycle-for-cycle (paper §III). Also backs
// MPI_Barrier.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/hash.hpp"
#include "sim/types.hpp"

namespace bg::hw {

inline constexpr sim::Cycle kBarrierLatency = 1100;  // ~1.3us at 850MHz

class BarrierNet {
 public:
  explicit BarrierNet(sim::Engine& engine) : engine_(engine) {}

  /// Define the membership of a barrier group.
  void configureGroup(std::uint64_t groupId, int members);

  /// Arrive at the barrier; onRelease fires kBarrierLatency after the
  /// last member arrives. All members release at the same cycle — this is
  /// the property the multichip-reproducibility reboot relies on.
  void arrive(std::uint64_t groupId, int nodeId,
              std::function<void()> onRelease);

  /// Keep-alive across reset: arbiters/state machines stay configured
  /// (paper: "the barrier network was set to remain active and
  /// configured" across reproducible reboots).
  void setPersistentAcrossReset(bool v) { persistent_ = v; }

  /// Reset volatile arbiter state (non-reproducible boot path drops
  /// group state; reproducible path preserves it).
  void resetArbiters();

  /// Deterministic digest of arbiter state — part of the logic scan.
  std::uint64_t stateHash() const;

  std::uint64_t barriersCompleted() const { return completed_; }

 private:
  struct Group {
    int expected = 0;
    int arrived = 0;
    std::vector<std::pair<int, std::function<void()>>> waiters;
  };

  sim::Engine& engine_;
  bool persistent_ = false;
  std::unordered_map<std::uint64_t, Group> groups_;
  std::uint64_t completed_ = 0;
};

}  // namespace bg::hw
