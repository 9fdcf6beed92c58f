// Unit tests: collective tree, 3-D torus + DMA, global barrier net.
#include <gtest/gtest.h>

#include "hw/barrier_net.hpp"
#include "hw/collective.hpp"
#include "hw/machine.hpp"
#include "hw/torus.hpp"

namespace bg::hw {
namespace {

// ---------------- Collective ----------------

TEST(Collective, DeliversPacketAfterLatency) {
  sim::Engine eng;
  CollectiveNet net(eng);
  bool got = false;
  sim::Cycle at = 0;
  net.setHandler(5, [&](CollPacket&& p) {
    got = true;
    at = eng.now();
    EXPECT_EQ(p.srcNode, 1);
    EXPECT_EQ(p.payload.size(), 100u);
  });
  CollPacket p;
  p.srcNode = 1;
  p.dstNode = 5;
  p.payload.resize(100);
  net.send(std::move(p));
  eng.run();
  EXPECT_TRUE(got);
  // serialization (100/0.8 = 125) + 4 hops * 250.
  EXPECT_EQ(at, 125u + 1000u);
}

TEST(Collective, UplinkSerializesBackToBackSends) {
  sim::Engine eng;
  CollectiveNet net(eng);
  std::vector<sim::Cycle> arrivals;
  net.setHandler(2, [&](CollPacket&&) { arrivals.push_back(eng.now()); });
  for (int i = 0; i < 2; ++i) {
    CollPacket p;
    p.srcNode = 1;
    p.dstNode = 2;
    p.payload.resize(800);  // 1000 cycles serialization each
    net.send(std::move(p));
  }
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 1000u);
}

TEST(Collective, ReductionSumsContributionsFromAll) {
  sim::Engine eng;
  CollectiveNet net(eng);
  std::vector<double> r0, r1;
  net.contribute(9, 0, {1.5, 2.0}, 2,
                 [&](const std::vector<double>& v) { r0 = v; });
  EXPECT_TRUE(r0.empty());  // waits for the last contributor
  net.contribute(9, 1, {0.5, 3.0}, 2,
                 [&](const std::vector<double>& v) { r1 = v; });
  eng.run();
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_DOUBLE_EQ(r0[0], 2.0);
  EXPECT_DOUBLE_EQ(r0[1], 5.0);
  EXPECT_EQ(r0, r1);
}

TEST(Collective, ReductionCompletesRelativeToLastArrival) {
  sim::Engine eng;
  CollectiveNet net(eng);
  sim::Cycle done = 0;
  net.contribute(9, 0, {1.0}, 2, [&](const auto&) {});
  eng.runUntil(500'000);  // rank 1 is late (noise on its node)
  net.contribute(9, 1, {1.0}, 2,
                 [&](const auto&) { done = eng.now(); });
  eng.run();
  EXPECT_GE(done, 500'000u);  // everyone waits for the last rank
}

// ---------------- Torus ----------------

struct TorusFixture : ::testing::Test {
  TorusFixture() {
    hw::MachineConfig mc;
    mc.computeNodes = 8;  // 2x2x2
    machine = std::make_unique<Machine>(mc);
  }
  std::unique_ptr<Machine> machine;
};

TEST_F(TorusFixture, HopCountUsesWraparound) {
  TorusNet& t = machine->torus();
  EXPECT_EQ(t.hops(0, 0), 0);
  EXPECT_EQ(t.hops(0, 1), 1);   // +x
  EXPECT_EQ(t.hops(0, 7), 3);   // opposite corner of 2x2x2
}

TEST_F(TorusFixture, DmaPutMovesRealBytes) {
  TorusNet& t = machine->torus();
  machine->node(0).mem().write64(0x1000, 0xABCDEF);
  bool remote = false, local = false;
  t.dmaPut(0, 0x1000, 1, 0x2000, 8, [&] { remote = true; },
           [&] { local = true; });
  machine->engine().run();
  EXPECT_TRUE(remote);
  EXPECT_TRUE(local);
  EXPECT_EQ(machine->node(1).mem().read64(0x2000), 0xABCDEFu);
}

TEST_F(TorusFixture, DmaGetFetchesRemoteData) {
  TorusNet& t = machine->torus();
  machine->node(3).mem().write64(0x4000, 77);
  bool done = false;
  t.dmaGet(0, 0x1000, 3, 0x4000, 8, [&] { done = true; });
  machine->engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(machine->node(0).mem().read64(0x1000), 77u);
}

TEST_F(TorusFixture, GetTakesLongerThanPut) {
  TorusNet& t = machine->torus();
  sim::Cycle putDone = 0, getDone = 0;
  t.dmaPut(0, 0, 1, 0, 64, [&] { putDone = machine->engine().now(); },
           nullptr);
  machine->engine().run();
  const sim::Cycle start = machine->engine().now();
  t.dmaGet(0, 0, 1, 0, 64, [&] { getDone = machine->engine().now(); });
  machine->engine().run();
  EXPECT_GT(getDone - start, putDone);  // request + response round trip
}

TEST_F(TorusFixture, PacketsDeliverToHandler) {
  TorusNet& t = machine->torus();
  int got = 0;
  t.setPacketHandler(2, [&](TorusPacket&& p) {
    ++got;
    EXPECT_EQ(p.tag, 0x7u);
  });
  TorusPacket p;
  p.srcNode = 0;
  p.dstNode = 2;
  p.tag = 0x7;
  p.payload.resize(32);
  t.sendPacket(std::move(p));
  machine->engine().run();
  EXPECT_EQ(got, 1);
}

TEST_F(TorusFixture, LinkContentionDelaysSecondTransfer) {
  TorusNet& t = machine->torus();
  sim::Cycle first = 0, second = 0;
  // Two large transfers over the same 0->1 link.
  t.dmaPut(0, 0, 1, 0x10000, 64 << 10,
           [&] { first = machine->engine().now(); }, nullptr);
  t.dmaPut(0, 0x8000, 1, 0x20000, 64 << 10,
           [&] { second = machine->engine().now(); }, nullptr);
  machine->engine().run();
  // Serialization of 64KB at 0.5 B/cyc is ~131072 cycles; the second
  // transfer queues behind the first on the shared link.
  EXPECT_GE(second - first, 100'000u);
}

TEST_F(TorusFixture, LocalLoopbackPutWorks) {
  TorusNet& t = machine->torus();
  machine->node(0).mem().write64(0x100, 5);
  bool done = false;
  t.dmaPut(0, 0x100, 0, 0x200, 8, [&] { done = true; }, nullptr);
  machine->engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(machine->node(0).mem().read64(0x200), 5u);
}

// ---------------- Barrier ----------------

TEST(BarrierNet, ReleasesAllAtSameCycleAfterLast) {
  sim::Engine eng;
  BarrierNet bar(eng);
  bar.configureGroup(1, 3);
  std::vector<sim::Cycle> released(3, 0);
  bar.arrive(1, 0, [&] { released[0] = eng.now(); });
  eng.runUntil(100);
  bar.arrive(1, 1, [&] { released[1] = eng.now(); });
  eng.runUntil(900);
  bar.arrive(1, 2, [&] { released[2] = eng.now(); });
  eng.run();
  EXPECT_EQ(released[0], released[1]);
  EXPECT_EQ(released[1], released[2]);
  EXPECT_EQ(released[2], 900u + kBarrierLatency);
  EXPECT_EQ(bar.barriersCompleted(), 1u);
}

TEST(BarrierNet, ReusableForConsecutiveBarriers) {
  sim::Engine eng;
  BarrierNet bar(eng);
  bar.configureGroup(1, 2);
  int releases = 0;
  for (int round = 0; round < 3; ++round) {
    bar.arrive(1, 0, [&] { ++releases; });
    bar.arrive(1, 1, [&] { ++releases; });
    eng.run();
  }
  EXPECT_EQ(releases, 6);
  EXPECT_EQ(bar.barriersCompleted(), 3u);
}

TEST(BarrierNet, ResetClearsUnlessPersistent) {
  sim::Engine eng;
  BarrierNet volatileBar(eng);
  volatileBar.configureGroup(1, 2);
  const std::uint64_t configured = volatileBar.stateHash();
  volatileBar.resetArbiters();
  EXPECT_NE(volatileBar.stateHash(), configured);  // group state dropped

  BarrierNet persistentBar(eng);
  persistentBar.configureGroup(1, 2);
  persistentBar.setPersistentAcrossReset(true);
  const std::uint64_t before = persistentBar.stateHash();
  persistentBar.resetArbiters();
  EXPECT_EQ(persistentBar.stateHash(), before);  // survives the reset
}

TEST(Machine, DerivesTorusDimensionsToFitNodes) {
  MachineConfig mc;
  mc.computeNodes = 12;
  Machine m(mc);
  const auto& dims = m.config().torus.dims;
  EXPECT_GE(dims[0] * dims[1] * dims[2], 12);
}

TEST(Machine, IoNodeMappingGroupsByPset) {
  MachineConfig mc;
  mc.computeNodes = 8;
  mc.ioNodes = 2;
  mc.computeNodesPerIoNode = 4;
  Machine m(mc);
  EXPECT_EQ(m.ioNodeIndexFor(0), 0);
  EXPECT_EQ(m.ioNodeIndexFor(3), 0);
  EXPECT_EQ(m.ioNodeIndexFor(4), 1);
  EXPECT_EQ(m.ioNodeNetIdFor(4), kIoNodeIdBase + 1);
}

}  // namespace
}  // namespace bg::hw
