// Property tests for the torus's fault-aware routing: seeded random
// torus shapes and dead-link sets, checked against an independent BFS
// oracle implemented here.
//
// Invariants pinned per (dims, dead-link set):
//  - hops(a, b) equals the oracle's shortest healthy directed path
//    (-1 iff unreachable) for every pair — the detour table really is
//    a pure function of the fault set;
//  - two machines given the same fault set agree on every hop count
//    (route-around determinism at the fabric level);
//  - a delivered packet's latency decomposes exactly into
//    serialization + hopLatency * hops(src, dst) + receive cost, so
//    the accounting a bench reports is the latency the app paid;
//  - hard link faults draw no RNG (pure state: the zero-fault witness
//    hash cannot move);
//  - an unreachable destination counts in unroutable() and a DMA put
//    aimed at it still drains the source injection FIFO;
//  - a degraded link charges exactly `retries` CRC rounds of
//    (serialization + 2 * hopLatency) extra latency per traversal.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "hw/machine.hpp"
#include "hw/torus.hpp"
#include "sim/rng.hpp"

namespace bg::hw {
namespace {

std::uint64_t key(int node, int dim, bool positive) {
  return (static_cast<std::uint64_t>(node) << 3) |
         (static_cast<std::uint64_t>(dim) << 1) | (positive ? 1u : 0u);
}

/// Independent BFS oracle over the healthy directed-link graph. Shares
/// nothing with TorusNet::routeFor except the link-key formula.
struct Oracle {
  std::array<int, 3> dims;
  std::set<std::uint64_t> dead;

  int total() const { return dims[0] * dims[1] * dims[2]; }

  std::array<int, 3> coords(int id) const {
    return {id % dims[0], (id / dims[0]) % dims[1],
            id / (dims[0] * dims[1])};
  }
  int id(const std::array<int, 3>& c) const {
    return c[0] + dims[0] * (c[1] + dims[1] * c[2]);
  }
  int neighbor(int node, int dim, bool positive) const {
    auto c = coords(node);
    c[dim] = (c[dim] + (positive ? 1 : dims[dim] - 1)) % dims[dim];
    return id(c);
  }

  /// Shortest healthy path length from src to dst, -1 if unreachable.
  int shortest(int src, int dst) const {
    if (src == dst) return 0;
    std::vector<int> dist(static_cast<std::size_t>(total()), -1);
    dist[static_cast<std::size_t>(src)] = 0;
    std::vector<int> frontier{src};
    while (!frontier.empty()) {
      std::vector<int> next;
      for (const int n : frontier) {
        for (int d = 0; d < 3; ++d) {
          if (dims[d] <= 1) continue;
          for (const bool positive : {true, false}) {
            if (dead.count(key(n, d, positive)) != 0) continue;
            const int m = neighbor(n, d, positive);
            if (dist[static_cast<std::size_t>(m)] >= 0) continue;
            dist[static_cast<std::size_t>(m)] =
                dist[static_cast<std::size_t>(n)] + 1;
            if (m == dst) return dist[static_cast<std::size_t>(m)];
            next.push_back(m);
          }
        }
      }
      frontier = std::move(next);
    }
    return -1;
  }
};

struct Shape {
  std::array<int, 3> dims;
  std::vector<std::array<int, 3>> kills;  // (node, dim, positive)
};

/// Seeded random torus shape + dead-link set. Kills only target rings
/// of extent >= 2 and never repeat a link, so every kill is armable.
Shape randomShape(std::uint64_t seed) {
  sim::Rng rng(seed, "torus-routing-prop");
  Shape s;
  for (int d = 0; d < 3; ++d) {
    s.dims[d] = 2 + static_cast<int>(rng.nextBelow(3));  // 2..4
  }
  const int total = s.dims[0] * s.dims[1] * s.dims[2];
  const int killCount = 1 + static_cast<int>(rng.nextBelow(5));
  std::set<std::uint64_t> seen;
  for (int i = 0; i < killCount; ++i) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const int node = static_cast<int>(
          rng.nextBelow(static_cast<std::uint64_t>(total)));
      const int dim = static_cast<int>(rng.nextBelow(3));
      const bool positive = rng.nextBelow(2) == 1;
      if (s.dims[dim] <= 1) continue;
      if (!seen.insert(key(node, dim, positive)).second) continue;
      s.kills.push_back({node, dim, positive ? 1 : 0});
      break;
    }
  }
  return s;
}

std::unique_ptr<Machine> makeMachine(const Shape& s) {
  MachineConfig mc;
  mc.torus.dims = s.dims;
  mc.computeNodes = s.dims[0] * s.dims[1] * s.dims[2];
  auto m = std::make_unique<Machine>(mc);
  for (const auto& k : s.kills) {
    EXPECT_TRUE(m->torus().killLink(k[0], k[1], k[2] != 0))
        << "node " << k[0] << " dim " << k[1];
  }
  return m;
}

TEST(TorusRouting, HopsMatchIndependentBfsOracleOverRandomFaultSets) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Shape s = randomShape(seed);
    auto machine = makeMachine(s);
    Oracle oracle;
    oracle.dims = s.dims;
    for (const auto& k : s.kills) {
      oracle.dead.insert(key(k[0], k[1], k[2] != 0));
    }
    TorusNet& t = machine->torus();
    const int total = oracle.total();
    for (int a = 0; a < total; ++a) {
      for (int b = 0; b < total; ++b) {
        EXPECT_EQ(t.hops(a, b), oracle.shortest(a, b))
            << "seed " << seed << " pair " << a << "->" << b;
      }
    }
  }
}

TEST(TorusRouting, SameFaultSetYieldsSameHopsAcrossMachines) {
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    const Shape s = randomShape(seed);
    auto m1 = makeMachine(s);
    auto m2 = makeMachine(s);
    const int total = s.dims[0] * s.dims[1] * s.dims[2];
    for (int a = 0; a < total; ++a) {
      for (int b = 0; b < total; ++b) {
        EXPECT_EQ(m1->torus().hops(a, b), m2->torus().hops(a, b))
            << "seed " << seed << " pair " << a << "->" << b;
      }
    }
  }
}

TEST(TorusRouting, DeliveryLatencyDecomposesIntoHopsAndSerialization) {
  for (std::uint64_t seed = 30; seed <= 35; ++seed) {
    const Shape s = randomShape(seed);
    auto machine = makeMachine(s);
    TorusNet& t = machine->torus();
    const int total = s.dims[0] * s.dims[1] * s.dims[2];
    // Every reachable pair off node 0, one idle-network packet each.
    for (int dst = 1; dst < total; ++dst) {
      const int hops = t.hops(0, dst);
      if (hops < 0) continue;  // unreachable pairs checked elsewhere
      sim::Cycle deliveredAt = 0;
      t.setPacketHandler(dst, [&machine, &deliveredAt](TorusPacket&&) {
        deliveredAt = machine->engine().now();
      });
      TorusPacket p;
      p.srcNode = 0;
      p.dstNode = dst;
      p.payload.resize(64);  // 128 cycles serialization at 0.5 B/cyc
      const sim::Cycle sentAt = machine->engine().now();
      t.sendPacket(p);
      machine->engine().run();
      ASSERT_GT(deliveredAt, sentAt) << "seed " << seed << " dst " << dst;
      const sim::Cycle ser = static_cast<sim::Cycle>(
          64.0 / kTorusBytesPerCycle);
      EXPECT_EQ(deliveredAt - sentAt,
                ser + kTorusHopLatency * static_cast<sim::Cycle>(hops) +
                    kTorusDmaRecvCost)
          << "seed " << seed << " dst " << dst << " hops " << hops;
    }
    // Hard link faults are pure state: no RNG was drawn anywhere.
    EXPECT_EQ(machine->torusFaults().rngDraws(), 0u) << "seed " << seed;
  }
}

TEST(TorusRouting, UnreachableDestinationCountsAndDrainsInjectionFifo) {
  // 3x1x1 ring: killing both links into node 1 severs it exactly.
  MachineConfig mc;
  mc.torus.dims = {3, 1, 1};
  mc.computeNodes = 3;
  Machine machine(mc);
  TorusNet& t = machine.torus();
  ASSERT_TRUE(t.killLink(0, 0, /*positive=*/true));
  ASSERT_TRUE(t.killLink(2, 0, /*positive=*/false));
  EXPECT_EQ(t.hops(0, 1), -1);
  EXPECT_EQ(t.hops(2, 1), -1);
  // Node 1 can still send (its outgoing links are alive)...
  EXPECT_EQ(t.hops(1, 2), 1);
  // ...and 0 <-> 2 reroutes over the surviving directed ring.
  EXPECT_EQ(t.hops(0, 2), t.hops(2, 0));

  bool delivered = false;
  bool localComplete = false;
  t.setPacketHandler(1, [&](TorusPacket&&) { delivered = true; });
  TorusPacket p;
  p.srcNode = 0;
  p.dstNode = 1;
  p.payload.resize(32);
  t.sendPacket(std::move(p));
  t.dmaPut(0, 0x1000, 1, 0x2000, 64, [&] { delivered = true; },
           [&] { localComplete = true; });
  machine.engine().run();
  EXPECT_FALSE(delivered) << "no healthy route may deliver";
  EXPECT_TRUE(localComplete)
      << "the injection FIFO must drain even when the payload is lost";
  EXPECT_EQ(t.unroutable(), 2u);
}

TEST(TorusRouting, DetourCountersChargeOnlyNonMinimalRoutes) {
  // 4x1x1 ring: 0 -> 1 minimal route is the +x link; killing it forces
  // the 3-hop detour the long way round.
  MachineConfig mc;
  mc.torus.dims = {4, 1, 1};
  mc.computeNodes = 4;
  Machine machine(mc);
  TorusNet& t = machine.torus();
  ASSERT_TRUE(t.killLink(0, 0, /*positive=*/true));
  EXPECT_EQ(t.hops(0, 1), 3);
  bool got = false;
  t.setPacketHandler(1, [&](TorusPacket&&) { got = true; });
  TorusPacket p;
  p.srcNode = 0;
  p.dstNode = 1;
  p.payload.resize(64);
  t.sendPacket(std::move(p));
  machine.engine().run();
  EXPECT_TRUE(got);
  EXPECT_EQ(t.detours(), 1u);
  EXPECT_EQ(t.detourHops(), 2u) << "3 taken vs 1 minimal";
  // A transfer whose minimal route is untouched pays nothing: 1 -> 2
  // still dimension-order routes over healthy links.
  got = false;
  t.setPacketHandler(2, [&](TorusPacket&&) { got = true; });
  TorusPacket q;
  q.srcNode = 1;
  q.dstNode = 2;
  q.payload.resize(64);
  t.sendPacket(std::move(q));
  machine.engine().run();
  EXPECT_TRUE(got);
  EXPECT_EQ(t.detours(), 1u) << "minimal-route transfer is not a detour";
}

TEST(TorusRouting, DegradedLinkChargesCrcRetryRoundsPerTraversal) {
  MachineConfig mc;
  mc.torus.dims = {4, 1, 1};
  mc.computeNodes = 4;
  Machine machine(mc);
  TorusNet& t = machine.torus();
  ASSERT_TRUE(t.degradeLink(0, 0, /*positive=*/true, /*retries=*/3));

  sim::Cycle deliveredAt = 0;
  t.setPacketHandler(1, [&](TorusPacket&&) {
    deliveredAt = machine.engine().now();
  });
  TorusPacket p;
  p.srcNode = 0;
  p.dstNode = 1;
  p.payload.resize(64);
  const sim::Cycle sentAt = machine.engine().now();
  t.sendPacket(std::move(p));
  machine.engine().run();
  ASSERT_GT(deliveredAt, sentAt);
  const sim::Cycle ser =
      static_cast<sim::Cycle>(64.0 / kTorusBytesPerCycle);
  const sim::Cycle perRound = ser + 2 * kTorusHopLatency;
  EXPECT_EQ(deliveredAt - sentAt,
            ser + kTorusHopLatency + kTorusDmaRecvCost + 3 * perRound);
  EXPECT_EQ(machine.torusFaults().stats().crcRetries, 3u);

  // Healing the link removes the penalty.
  ASSERT_TRUE(t.degradeLink(0, 0, true, 0));
  deliveredAt = 0;
  const sim::Cycle sentAt2 = machine.engine().now();
  TorusPacket q;
  q.srcNode = 0;
  q.dstNode = 1;
  q.payload.resize(64);
  t.sendPacket(std::move(q));
  machine.engine().run();
  EXPECT_EQ(deliveredAt - sentAt2, ser + kTorusHopLatency + kTorusDmaRecvCost);
  EXPECT_EQ(machine.torusFaults().stats().crcRetries, 3u);
}

}  // namespace
}  // namespace bg::hw
