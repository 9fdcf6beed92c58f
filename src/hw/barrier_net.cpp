#include "hw/barrier_net.hpp"

#include <cassert>

namespace bg::hw {

void BarrierNet::configureGroup(std::uint64_t groupId, int members) {
  Group& g = groups_[groupId];
  g.expected = members;
}

void BarrierNet::arrive(std::uint64_t groupId, int nodeId,
                        std::function<void()> onRelease) {
  Group& g = groups_[groupId];
  assert(g.expected > 0 && "barrier group not configured");
  g.waiters.emplace_back(nodeId, std::move(onRelease));
  ++g.arrived;
  if (g.arrived < g.expected) return;

  auto waiters = std::move(g.waiters);
  g.arrived = 0;
  g.waiters.clear();
  ++completed_;
  engine_.schedule(kBarrierLatency, [waiters = std::move(waiters)]() {
    for (const auto& [node, fn] : waiters) {
      if (fn) fn();
    }
  });
}

void BarrierNet::resetArbiters() {
  if (persistent_) return;
  groups_.clear();
}

std::uint64_t BarrierNet::stateHash() const {
  sim::Fnv1a h;
  h.mix(persistent_ ? 1 : 0);
  h.mix(groups_.size());
  // Order-independent mix of group occupancy.
  std::uint64_t acc = 0;
  for (const auto& [id, g] : groups_) {
    sim::Fnv1a gh;
    gh.mix(id).mix(static_cast<std::uint64_t>(g.expected))
        .mix(static_cast<std::uint64_t>(g.arrived));
    acc ^= gh.digest();
  }
  h.mix(acc);
  return h.digest();
}

}  // namespace bg::hw
