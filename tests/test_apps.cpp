// Integration tests: the workload applications (FWQ, LINPACK proxy,
// allreduce bench, OpenMP-phase app, UMT proxy, checkpoint I/O kernel).
#include <gtest/gtest.h>

#include "apps/allreduce.hpp"
#include "apps/fwq.hpp"
#include "apps/io_kernel.hpp"
#include "apps/linpack.hpp"
#include "apps/omp_app.hpp"
#include "apps/umt_proxy.hpp"
#include "cluster_test_util.hpp"

namespace bg {
namespace {

TEST(FwqApp, ProducesRequestedSamplesPerThread) {
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  apps::FwqParams fp;
  fp.samples = 25;
  kernel::JobSpec job;
  job.exe = apps::fwqImage(fp);
  std::vector<std::vector<std::uint64_t>> s(4);
  for (int i = 0; i < 4; ++i) cluster.attachSamples(0, i, &s[i]);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(s[i].size(), 25u) << "thread " << i;
    for (auto v : s[i]) {
      EXPECT_GT(v, 600'000u);
      EXPECT_LT(v, 700'000u);
    }
  }
}

TEST(FwqApp, CnkSamplesAreFlat) {
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  apps::FwqParams fp;
  fp.samples = 50;
  kernel::JobSpec job;
  job.exe = apps::fwqImage(fp);
  std::vector<std::uint64_t> s;
  cluster.attachSamples(0, 0, &s);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  const auto [mn, mx] = std::minmax_element(s.begin(), s.end());
  // Paper: maximum variation < 0.006%.
  EXPECT_LT(static_cast<double>(*mx - *mn) / static_cast<double>(*mn),
            0.0001);
}

TEST(FwqApp, FwkSamplesShowNoise) {
  rt::ClusterConfig cfg;
  cfg.kernel = rt::KernelKind::kFwk;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  apps::FwqParams fp;
  fp.samples = 400;
  kernel::JobSpec job;
  job.exe = apps::fwqImage(fp);
  std::vector<std::uint64_t> s;
  cluster.attachSamples(0, 0, &s);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  const auto [mn, mx] = std::minmax_element(s.begin(), s.end());
  // Paper: >5% spread on the noisy cores.
  EXPECT_GT(static_cast<double>(*mx - *mn) / static_cast<double>(*mn),
            0.01);
}

TEST(LinpackApp, ReportsOneTotalPerRank) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  apps::LinpackParams lp;
  lp.phases = 6;
  kernel::JobSpec job;
  job.exe = apps::linpackImage(lp);
  std::vector<std::uint64_t> s0, s1;
  cluster.attachSamples(0, 0, &s0);
  cluster.attachSamples(1, 0, &s1);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(s0.size(), 1u);
  ASSERT_EQ(s1.size(), 1u);
  EXPECT_GT(s0[0], 6u * apps::kLinpackComputePerPhase);
}

TEST(AllreduceApp, SamplesPerIterationAndConsistentResults) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  apps::AllreduceParams ap;
  ap.iterations = 10;
  kernel::JobSpec job;
  job.exe = apps::allreduceImage(ap);
  std::vector<std::vector<std::uint64_t>> s(4);
  for (int i = 0; i < 4; ++i) cluster.attachSamples(i, 0, &s[i]);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(s[i].size(), 10u);
  }
  // Every rank must read back the same combined value.
  kernel::Process* p0 = cluster.processOfRank(0);
  kernel::Process* p3 = cluster.processOfRank(3);
  std::uint64_t v0 = 0, v3 = 0;
  cluster.kernelOn(0).copyFromUser(
      *p0, p0->heapBase + 4096, std::as_writable_bytes(std::span(&v0, 1)));
  cluster.kernelOn(3).copyFromUser(
      *p3, p3->heapBase + 4096, std::as_writable_bytes(std::span(&v3, 1)));
  EXPECT_EQ(v0, v3);
  EXPECT_NE(v0, 0u);
}

TEST(OmpApp, SmpModeBuildsFullTeams) {
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  apps::OmpAppParams op;
  op.phases = 2;
  op.ompThreads = 4;
  kernel::JobSpec job;
  job.exe = apps::ompAppImage(op);
  std::vector<std::uint64_t> s;
  cluster.attachSamples(0, 0, &s);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(s.size(), 2u);  // one sample per phase
  EXPECT_EQ(s[0], 3u);      // 3 workers created (+ master = team of 4)
  EXPECT_EQ(s[1], 3u);
}

TEST(OmpApp, VnModeTeamsAreClippedWithoutExtension) {
  // 4 processes per node: each owns one core (3 slots). A 6-thread
  // team request yields at most 2 extra workers (§VIII motivation).
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  apps::OmpAppParams op;
  op.phases = 1;
  op.ompThreads = 6;
  kernel::JobSpec job;
  job.processes = 4;
  job.exe = apps::ompAppImage(op);
  std::vector<std::uint64_t> s;
  cluster.attachSamples(0, 0, &s);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], 2u);
}

TEST(UmtApp, DlopenThreadsAndOutputFile) {
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  apps::UmtParams up;
  kernel::JobSpec job;
  job.exe = apps::umtImage(up);
  job.libs = apps::umtLibraries(up);
  std::vector<std::uint64_t> s;
  cluster.attachSamples(0, 0, &s);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(s.size(), 3u);
  EXPECT_GT(s[0], 0u);                      // dlopen phase took time
  EXPECT_GT(s[1], up.computeCycles);        // compute phase ran
  EXPECT_EQ(s[2], apps::kUmtOutputBytes);   // file written via fship
  EXPECT_TRUE(cluster.ioRootFs(0).exists("/tmp/umt.out"));
  // Both libraries got loaded.
  kernel::Process* p = cluster.processOfRank(0);
  EXPECT_EQ(cluster.cnkOn(0)->linker().loadedCount(p->pid()), 2u);
}

TEST(UmtApp, CnkFrontLoadsCostFwkSmearsIt) {
  // The design contrast of §IV-B2 measured end to end: CNK pays at
  // dlopen (phase 0 slow, compute clean); the FWK's dlopen is instant
  // but its compute phase pays remote page faults.
  auto run = [&](rt::KernelKind kind) {
    rt::ClusterConfig cfg;
    cfg.kernel = kind;
    rt::Cluster cluster(cfg);
    EXPECT_TRUE(cluster.bootAll());
    apps::UmtParams up;
    kernel::JobSpec job;
    job.exe = apps::umtImage(up);
    job.libs = apps::umtLibraries(up);
    std::vector<std::uint64_t> s;
    cluster.attachSamples(0, 0, &s);
    EXPECT_TRUE(cluster.loadJob(job));
    EXPECT_TRUE(cluster.run());
    return s;
  };
  const auto cnk = run(rt::KernelKind::kCnk);
  const auto fwk = run(rt::KernelKind::kFwk);
  ASSERT_EQ(cnk.size(), 3u);
  ASSERT_EQ(fwk.size(), 3u);
  EXPECT_GT(cnk[0], fwk[0]);  // CNK dlopen phase is the expensive one
  EXPECT_GT(fwk[1], cnk[1]);  // FWK compute phase pays the lazy faults
}

TEST(IoKernelApp, WritesAndVerifiesPerRankFiles) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  apps::IoKernelParams ip;
  kernel::JobSpec job;
  job.exe = apps::ioKernelImage(ip);
  std::vector<std::vector<std::uint64_t>> s(2);
  cluster.attachSamples(0, 0, &s[0]);
  cluster.attachSamples(1, 0, &s[1]);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  for (int rank = 0; rank < 2; ++rank) {
    ASSERT_EQ(s[rank].size(), 3u);
    EXPECT_GE(static_cast<std::int64_t>(s[rank][0]), 3);   // open ok
    EXPECT_GT(s[rank][1], 0u);                             // write time
    EXPECT_EQ(s[rank][2], ip.chunkBytes);                  // read back
  }
  EXPECT_TRUE(cluster.ioRootFs(0).exists("/tmp/ckpt.0"));
  EXPECT_TRUE(cluster.ioRootFs(0).exists("/tmp/ckpt.1"));
  const auto f0 = cluster.ioRootFs(0).fileContents("/tmp/ckpt.0");
  EXPECT_EQ(f0.size(),
            static_cast<std::size_t>(ip.chunks) * ip.chunkBytes);
}

}  // namespace
}  // namespace bg
