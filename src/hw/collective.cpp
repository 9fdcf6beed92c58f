#include "hw/collective.hpp"

#include <algorithm>
#include <cassert>

namespace bg::hw {
namespace {

constexpr sim::Cycle kPerHopLatency = 250;  // per tree hop
constexpr double kBytesPerCycle = 0.8;      // ~700MB/s at 850MHz
constexpr sim::Cycle kTreeDepth = 4;        // CN -> ION hops

sim::Cycle serialize(std::uint64_t bytes) {
  return static_cast<sim::Cycle>(static_cast<double>(bytes) / kBytesPerCycle);
}

}  // namespace

void CollectiveNet::deliver(CollPacket&& p) {
  ++packetsDelivered_;
  bytesDelivered_ += p.payload.size();
  auto it = handlers_.find(p.dstNode);
  if (it != handlers_.end() && it->second) it->second(std::move(p));
}

void CollectiveNet::send(CollPacket packet) {
  const std::uint64_t bytes = packet.payload.size();
  const sim::Cycle now = engine_.now();
  sim::Cycle& busy = uplinkBusyUntil_[packet.srcNode];
  const sim::Cycle start = std::max(now, busy);
  const sim::Cycle ser = serialize(bytes);
  busy = start + ser;
  sim::Cycle arrive = start + ser + kPerHopLatency * kTreeDepth;

  if (faults_ != nullptr && faults_->anyEnabled()) {
    LinkFaultOutcome f = faults_->judge(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(packet.srcNode)),
        packet.payload.size());
    if (f.drop) return;  // serialization stays charged; nothing arrives
    if (f.corrupt) {
      packet.payload[f.corruptByteIndex] ^= std::byte{f.corruptXor};
    }
    arrive += f.extraDelay;
    if (f.duplicate) {
      engine_.scheduleAt(arrive + f.duplicateDelay,
                         [this, p = packet]() mutable {  // copy
                           deliver(std::move(p));
                         });
    }
  }

  engine_.scheduleAt(arrive, [this, p = std::move(packet)]() mutable {
    deliver(std::move(p));
  });
}

void CollectiveNet::contribute(std::uint64_t groupId, int nodeId,
                               std::vector<double> values, int groupSize,
                               ReduceHandler onResult) {
  Reduction& r = reductions_[groupId];
  if (r.expected == 0) {
    r.expected = groupSize;
    r.sum.assign(values.size(), 0.0);
  }
  assert(r.sum.size() == values.size());
  for (std::size_t i = 0; i < values.size(); ++i) r.sum[i] += values[i];
  r.waiters.emplace_back(nodeId, std::move(onResult));
  ++r.arrived;
  if (r.arrived < r.expected) return;

  // Last contributor: results flow up and back down the tree.
  const std::uint64_t bytes = r.sum.size() * sizeof(double);
  const sim::Cycle lat =
      2 * kPerHopLatency * kTreeDepth + 2 * serialize(bytes);
  auto done = std::move(r.waiters);
  auto result = std::move(r.sum);
  reductions_.erase(groupId);
  engine_.schedule(lat, [done = std::move(done),
                         result = std::move(result)]() {
    for (const auto& [node, handler] : done) {
      if (handler) handler(result);
    }
  });
}

}  // namespace bg::hw
