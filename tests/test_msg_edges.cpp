// Edge cases in the messaging stack: truncation, self-sends, zero-ish
// payloads, concurrent reductions, and independent barrier groups.
#include <gtest/gtest.h>

#include "cluster_test_util.hpp"
#include "hw/barrier_net.hpp"
#include "hw/collective.hpp"
#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"

namespace bg {
namespace {

using test::emitExit;
using test::runProgram;

std::int64_t rtc(rt::Rt r) { return static_cast<std::int64_t>(r); }

TEST(MsgEdges, RecvTruncatesToPostedBufferSize) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  vm::ProgramBuilder b("t");
  b.mov(16, 10);
  const std::size_t toRecv = b.emitForwardBranch(vm::Op::kBnez, 1);
  // Sender: 64 bytes, first and last words marked.
  b.li(17, 0x1111);
  b.store(16, 17, 0);
  b.li(17, 0x2222);
  b.store(16, 17, 56);
  b.li(1, 1);
  b.mov(2, 16);
  b.li(3, 64);
  b.li(4, 9);
  b.rtcall(rtc(rt::Rt::kDcmfSend));
  emitExit(b);
  b.patchHere(toRecv);
  // Receiver: posts only 16 bytes.
  b.li(1, 0);
  b.mov(2, 16);
  b.addi(2, 2, 4096);
  b.li(3, 16);
  b.li(4, 9);
  b.rtcall(rtc(rt::Rt::kDcmfRecv));
  b.sample(0);  // truncated byte count
  b.load(18, 16, 4096);
  b.sample(18);         // first word intact
  b.load(18, 16, 4096 + 56);
  b.sample(18);         // beyond the posted buffer: untouched (0)
  emitExit(b);
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  std::vector<std::uint64_t> s;
  cluster.attachSamples(1, 0, &s);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 16u);
  EXPECT_EQ(s[1], 0x1111u);
  EXPECT_EQ(s[2], 0u);
}

TEST(MsgEdges, PutToSelfRankWorks) {
  // Loopback DMA on one node (the torus's local path).
  vm::ProgramBuilder b("t");
  b.mov(16, 10);
  b.li(17, 0x5E1F);
  b.store(16, 17, 0);
  b.li(1, 0);  // self
  b.mov(2, 16);
  b.mov(3, 16);
  b.addi(3, 3, 2048);
  b.li(4, 8);
  b.li(5, 1);
  b.rtcall(rtc(rt::Rt::kDcmfPut));
  b.load(18, 16, 2048);
  b.sample(18);
  emitExit(b);
  auto r = runProgram({}, std::move(b).build());
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.samples.size(), 1u);
  EXPECT_EQ(r.samples[0], 0x5E1Fu);
}

TEST(MsgEdges, ConcurrentReductionsOnDistinctGroupsDoNotMix) {
  sim::Engine eng;
  hw::CollectiveNet net(eng);
  std::vector<double> ra, rb;
  // Interleave the arrivals of two independent reductions.
  net.contribute(1, 0, {1.0}, 2, [&](const auto& v) { ra = v; });
  net.contribute(2, 0, {10.0}, 2, [&](const auto& v) { rb = v; });
  net.contribute(2, 1, {20.0}, 2, [&](const auto&) {});
  net.contribute(1, 1, {2.0}, 2, [&](const auto&) {});
  eng.run();
  ASSERT_EQ(ra.size(), 1u);
  ASSERT_EQ(rb.size(), 1u);
  EXPECT_DOUBLE_EQ(ra[0], 3.0);
  EXPECT_DOUBLE_EQ(rb[0], 30.0);
}

TEST(MsgEdges, BarrierGroupsAreIndependent) {
  sim::Engine eng;
  hw::BarrierNet bar(eng);
  bar.configureGroup(1, 2);
  bar.configureGroup(2, 3);
  int g1 = 0, g2 = 0;
  bar.arrive(1, 0, [&] { ++g1; });
  bar.arrive(2, 0, [&] { ++g2; });
  bar.arrive(2, 1, [&] { ++g2; });
  bar.arrive(1, 1, [&] { ++g1; });
  eng.run();
  EXPECT_EQ(g1, 2);
  EXPECT_EQ(g2, 0);  // group 2 still waits for its third member
  bar.arrive(2, 2, [&] { ++g2; });
  eng.run();
  EXPECT_EQ(g2, 3);
}

TEST(MsgEdges, SendsToDistinctPeersInterleaveCorrectly) {
  // Rank 0 sends distinct values to ranks 1..3; each receives its own.
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  vm::ProgramBuilder b("t");
  b.mov(16, 10);
  const std::size_t toRecv = b.emitForwardBranch(vm::Op::kBnez, 1);
  for (int dst = 1; dst <= 3; ++dst) {
    b.li(17, 100 + dst);
    b.store(16, 17, 0);
    b.li(1, dst);
    b.mov(2, 16);
    b.li(3, 8);
    b.li(4, 4);
    b.rtcall(rtc(rt::Rt::kMpiSend));
  }
  emitExit(b);
  b.patchHere(toRecv);
  b.li(1, 0);
  b.mov(2, 16);
  b.addi(2, 2, 4096);
  b.li(3, 8);
  b.li(4, 4);
  b.rtcall(rtc(rt::Rt::kMpiRecv));
  b.load(18, 16, 4096);
  b.sample(18);
  emitExit(b);
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  std::vector<std::vector<std::uint64_t>> s(4);
  for (int r = 0; r < 4; ++r) cluster.attachSamples(r, 0, &s[r]);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  for (int r = 1; r <= 3; ++r) {
    ASSERT_EQ(s[r].size(), 1u) << r;
    EXPECT_EQ(s[r][0], static_cast<std::uint64_t>(100 + r));
  }
}

TEST(MsgEdges, ArmciGetSeesLatestRemoteValue) {
  // Two sequential gets observe a value the target changed in between
  // (one-sided freshness).
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  vm::ProgramBuilder b("t");
  b.mov(16, 10);
  const std::size_t toTarget = b.emitForwardBranch(vm::Op::kBnez, 1);
  // Rank 0: get, wait, get again.
  for (int round = 0; round < 2; ++round) {
    b.li(1, 1);
    b.mov(2, 16);
    b.addi(2, 2, 128);
    b.mov(3, 16);
    b.addi(3, 3, 256);
    b.li(4, 8);
    b.rtcall(rtc(rt::Rt::kArmciGet));
    b.load(18, 16, 256);
    b.sample(18);
    if (round == 0) b.compute(3'000'000);
  }
  emitExit(b);
  b.patchHere(toTarget);
  // Rank 1: publish 1, then later 2.
  b.li(17, 1);
  b.store(16, 17, 128);
  b.compute(1'500'000);
  b.li(17, 2);
  b.store(16, 17, 128);
  b.compute(4'000'000);  // stay alive for the second get
  emitExit(b);
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  std::vector<std::uint64_t> s;
  cluster.attachSamples(0, 0, &s);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 1u);
  EXPECT_EQ(s[1], 2u);
}

}  // namespace
}  // namespace bg
