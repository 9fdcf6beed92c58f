#include "hw/torus.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "hw/node.hpp"

namespace bg::hw {

namespace {
std::uint64_t linkKey(int nodeId, int dim, bool positive) {
  return (static_cast<std::uint64_t>(nodeId) << 3) |
         (static_cast<std::uint64_t>(dim) << 1) | (positive ? 1u : 0u);
}
}  // namespace

void TorusNet::attachNode(int nodeId, Node* node) {
  nodes_[nodeId] = node;
  node->coords = coordsOf(nodeId);
}

std::array<int, 3> TorusNet::coordsOf(int nodeId) const {
  const int x = nodeId % cfg_.dims[0];
  const int y = (nodeId / cfg_.dims[0]) % cfg_.dims[1];
  const int z = nodeId / (cfg_.dims[0] * cfg_.dims[1]);
  return {x, y, z};
}

int TorusNet::minimalHops(int a, int b) const {
  const auto ca = coordsOf(a);
  const auto cb = coordsOf(b);
  int total = 0;
  for (int d = 0; d < 3; ++d) {
    const int size = cfg_.dims[d];
    const int diff = std::abs(ca[d] - cb[d]);
    total += std::min(diff, size - diff);  // torus wraps
  }
  return total;
}

int TorusNet::hops(int a, int b) const {
  if (faults_ != nullptr && faults_->anyDead()) {
    if (a == b) return 0;
    const std::vector<Hop>* path = routeFor(a, b);
    return path != nullptr ? static_cast<int>(path->size()) : -1;
  }
  return minimalHops(a, b);
}

int TorusNet::neighborOf(int nodeId, int dim, bool positive) const {
  auto c = coordsOf(nodeId);
  const int size = cfg_.dims[dim];
  c[dim] = (c[dim] + (positive ? 1 : size - 1)) % size;
  return nodeIdOf(c);
}

bool TorusNet::killLink(int nodeId, int dim, bool positive) {
  if (faults_ == nullptr || dim < 0 || dim >= 3) return false;
  if (cfg_.dims[dim] <= 1) return false;  // no such ring
  const int total = cfg_.dims[0] * cfg_.dims[1] * cfg_.dims[2];
  if (nodeId < 0 || nodeId >= total) return false;
  if (!faults_->markDead(linkKey(nodeId, dim, positive))) return false;
  routeCache_.clear();  // detour table is recomputed lazily
  if (linkEvent_) linkEvent_(nodeId, dim, positive, /*dead=*/true);
  return true;
}

bool TorusNet::degradeLink(int nodeId, int dim, bool positive, int retries) {
  if (faults_ == nullptr || dim < 0 || dim >= 3) return false;
  if (cfg_.dims[dim] <= 1) return false;
  const int total = cfg_.dims[0] * cfg_.dims[1] * cfg_.dims[2];
  if (nodeId < 0 || nodeId >= total) return false;
  faults_->markDegraded(linkKey(nodeId, dim, positive), retries);
  if (linkEvent_ && retries > 0) {
    linkEvent_(nodeId, dim, positive, /*dead=*/false);
  }
  return true;
}

const std::vector<TorusNet::Hop>* TorusNet::routeFor(int src, int dst) const {
  const std::uint64_t key = (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(src))
                             << 32) |
                            static_cast<std::uint32_t>(dst);
  auto it = routeCache_.find(key);
  if (it == routeCache_.end()) {
    // BFS over the healthy directed-link graph. Neighbor order is
    // fixed (dim 0..2, positive before negative) and nodes are visited
    // in queue order, so the detour table is a pure function of the
    // dead-link set — the determinism the double-run oracle pins.
    const int total = cfg_.dims[0] * cfg_.dims[1] * cfg_.dims[2];
    std::vector<Hop> via(static_cast<std::size_t>(total),
                         Hop{-1, 0, false});
    std::vector<int> frontier{src};
    via[static_cast<std::size_t>(src)] = Hop{src, 0, false};
    bool found = src == dst;
    while (!frontier.empty() && !found) {
      std::vector<int> next;
      for (const int n : frontier) {
        for (int d = 0; d < 3 && !found; ++d) {
          if (cfg_.dims[d] <= 1) continue;  // size-1 ring: no links
          for (const bool positive : {true, false}) {
            if (faults_->isDead(linkKey(n, d, positive))) continue;
            const int m = neighborOf(n, d, positive);
            if (via[static_cast<std::size_t>(m)].node >= 0 || m == src) {
              continue;  // already reached
            }
            via[static_cast<std::size_t>(m)] = Hop{n, d, positive};
            next.push_back(m);
            if (m == dst) {
              found = true;
              break;
            }
          }
        }
        if (found) break;
      }
      frontier = std::move(next);
    }
    std::vector<Hop> path;
    if (found && src != dst) {
      for (int n = dst; n != src;) {
        const Hop& h = via[static_cast<std::size_t>(n)];
        path.push_back(h);
        n = h.node;
      }
      std::reverse(path.begin(), path.end());
    }
    it = routeCache_.emplace(key, std::move(path)).first;
  }
  if (src != dst && it->second.empty()) return nullptr;  // unreachable
  return &it->second;
}

std::pair<sim::Cycle, sim::Cycle> TorusNet::reserveRoute(
    int src, int dst, std::uint64_t bytes) {
  const sim::Cycle ser = static_cast<sim::Cycle>(
      static_cast<double>(bytes) / cfg_.bytesPerCycle);
  // Degraded links inflate their reservation by `retries` CRC
  // retransmit rounds; the lookup is gated so a clean machine pays
  // nothing on the hot path.
  const bool anyDegraded = faults_ != nullptr && faults_->anyDegraded();
  sim::Cycle retryExtra = 0;
  sim::Cycle start = engine_.now();
  int hopCount = 0;

  auto reserveLink = [&](std::uint64_t key) {
    sim::Cycle linkSer = ser;
    if (anyDegraded) {
      const int deg = faults_->degradeOf(key);
      if (deg > 0) {
        const sim::Cycle penalty =
            static_cast<sim::Cycle>(deg) * (ser + 2 * cfg_.hopLatency);
        linkSer += penalty;
        retryExtra += penalty;
        faults_->chargeRetries(deg);
      }
    }
    sim::Cycle& busy = linkBusyUntil_[key];
    start = std::max(start, busy);
    busy = start + linkSer;
    ++hopCount;
  };

  if (faults_ != nullptr && faults_->anyDead()) {
    // Route-around mode: walk the deterministic detour route.
    if (src != dst) {
      const std::vector<Hop>* path = routeFor(src, dst);
      if (path == nullptr) {
        ++unroutable_;
        return {start, kUnreachable};
      }
      for (const Hop& h : *path) {
        reserveLink(linkKey(h.node, h.dim, h.positive));
      }
      const int minimal = minimalHops(src, dst);
      if (hopCount > minimal) {
        ++detours_;
        detourHops_ += static_cast<std::uint64_t>(hopCount - minimal);
      }
    }
  } else {
    // Dimension-order routing; each directed link on the route is
    // reserved for the serialization time, pushing start past any
    // in-flight transfer sharing a link.
    auto cur = coordsOf(src);
    const auto target = coordsOf(dst);
    int curId = src;
    for (int d = 0; d < 3; ++d) {
      while (cur[d] != target[d]) {
        const int size = cfg_.dims[d];
        int fwd = (target[d] - cur[d] + size) % size;
        const bool positive = fwd <= size / 2;
        reserveLink(linkKey(curId, d, positive));
        cur[d] = (cur[d] + (positive ? 1 : size - 1)) % size;
        // Recompute node id from coords.
        curId = nodeIdOf(cur);
      }
    }
  }
  const sim::Cycle arrive = start + ser +
                            cfg_.hopLatency * static_cast<sim::Cycle>(hopCount) +
                            retryExtra;
  return {start, arrive};
}

sim::Cycle TorusNet::faultRecoveryDelay(int srcNode, std::uint64_t bytes) {
  if (faults_ == nullptr || !faults_->anyEnabled()) return 0;
  const LinkFaultOutcome f =
      faults_->judge(static_cast<std::uint64_t>(srcNode) << 3, bytes);
  sim::Cycle extra = f.extraDelay;
  if (f.drop || f.corrupt) {
    // Link-level CRC retransmit: the packet is re-serialized after a
    // NACK turnaround; software above never sees the loss.
    extra += static_cast<sim::Cycle>(static_cast<double>(bytes) /
                                     cfg_.bytesPerCycle) +
             2 * cfg_.hopLatency;
  }
  return extra;
}

void TorusNet::sendPacket(TorusPacket packet) {
  auto [start, arrive] =
      reserveRoute(packet.srcNode, packet.dstNode, packet.payload.size());
  (void)start;
  if (arrive == kUnreachable) return;  // no healthy route; counted
  arrive += faultRecoveryDelay(packet.srcNode, packet.payload.size());
  bytesMoved_ += packet.payload.size();
  engine_.scheduleAt(arrive + cfg_.dmaRecvCost,
                     [this, p = std::move(packet)]() mutable {
                       auto it = handlers_.find(p.dstNode);
                       if (it != handlers_.end() && it->second) {
                         it->second(std::move(p));
                       }
                     });
}

void TorusNet::dmaPut(int srcNode, PAddr srcPa, int dstNode, PAddr dstPa,
                      std::uint64_t bytes,
                      std::function<void()> onRemoteDelivered,
                      std::function<void()> onLocalComplete) {
  Node* src = nodes_.at(srcNode);
  Node* dst = nodes_.at(dstNode);
  bytesMoved_ += bytes;

  if (srcNode == dstNode) {
    // Local loopback: memory-to-memory copy through the DMA engine.
    std::vector<std::byte> buf(bytes);
    src->mem().read(srcPa, buf);
    dst->mem().write(dstPa, buf);
    const sim::Cycle done =
        engine_.now() + cfg_.dmaInjectCost +
        static_cast<sim::Cycle>(static_cast<double>(bytes) /
                                cfg_.bytesPerCycle / 4.0);
    engine_.scheduleAt(done, [cb = std::move(onRemoteDelivered)] {
      if (cb) cb();
    });
    engine_.scheduleAt(done, [cb = std::move(onLocalComplete)] {
      if (cb) cb();
    });
    return;
  }

  auto [start, arrive] = reserveRoute(srcNode, dstNode, bytes);
  if (arrive == kUnreachable) {
    // The destination fell off the healthy graph: the payload is lost
    // but the injection FIFO still drains, so the source's completion
    // counter advances and the app is not wedged on its own send.
    engine_.schedule(cfg_.dmaInjectCost, [cb = std::move(onLocalComplete)] {
      if (cb) cb();
    });
    return;
  }
  arrive += faultRecoveryDelay(srcNode, bytes);
  const sim::Cycle injectDone =
      std::max(start, engine_.now() + cfg_.dmaInjectCost) +
      static_cast<sim::Cycle>(static_cast<double>(bytes) /
                              cfg_.bytesPerCycle);

  // The payload is captured at injection time (the DMA streams from
  // memory as it goes; we snapshot at send which is equivalent for
  // correct programs that do not scribble on in-flight buffers).
  std::vector<std::byte> buf(bytes);
  src->mem().read(srcPa, buf);

  engine_.scheduleAt(
      arrive + cfg_.dmaInjectCost + cfg_.dmaRecvCost,
      [dst, dstPa, buf = std::move(buf),
       cb = std::move(onRemoteDelivered)]() mutable {
        dst->mem().write(dstPa, buf);
        if (cb) cb();
      });
  engine_.scheduleAt(injectDone, [cb = std::move(onLocalComplete)] {
    if (cb) cb();
  });
}

void TorusNet::dmaGet(int srcNode, PAddr localPa, int dstNode,
                      PAddr remotePa, std::uint64_t bytes,
                      std::function<void()> onComplete) {
  // A get is a small request packet followed by a put coming back.
  auto [reqStart, reqArrive] = reserveRoute(srcNode, dstNode, 32);
  (void)reqStart;
  if (reqArrive == kUnreachable) return;  // request lost; counted
  reqArrive += faultRecoveryDelay(srcNode, 32);
  engine_.scheduleAt(
      reqArrive + cfg_.dmaRecvCost,
      [this, srcNode, localPa, dstNode, remotePa, bytes,
       cb = std::move(onComplete)]() mutable {
        dmaPut(dstNode, remotePa, srcNode, localPa, bytes,
               std::move(cb), nullptr);
      });
}

}  // namespace bg::hw
