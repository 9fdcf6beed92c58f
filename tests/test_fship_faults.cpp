// Reliable function-shipping under injected link faults and CIOD
// death (paper §IV-A as a fault-tolerance story).
//
// The oracle throughout is *fault-free equivalence*: a run with seeded
// drops / corruption / delays / duplication on the collective network
// must produce byte-for-byte the results of the clean run — same fd
// numbers, same read-back byte counts, same file contents — with the
// faults visibly absorbed by the reliability layer (retransmits,
// checksum rejects, seq dedup, the CIOD replay cache). CIOD death is
// covered both ways: with a cold spare (failover completes in-flight
// syscalls exactly once) and without (the watchdog turns lost replies
// into -EIO plus kIoTimeout / kIoNodeDead RAS, never a hung thread).
//
// The default run uses one fixed seed; the `slow` ctest lane
// (FSHIP_FAULTS_SLOW=1) sweeps several seeds per fault mix.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "apps/io_kernel.hpp"
#include "hw/link_fault.hpp"
#include "io/protocol.hpp"
#include "runtime/app.hpp"

namespace bg {
namespace {

// --- unit layer: the fault model itself ---------------------------------

TEST(LinkFaultModel, SameSeedReplaysTheSameFaultSequence) {
  hw::LinkFaultRates r;
  r.dropRate = 0.3;
  r.corruptRate = 0.2;
  r.delayRate = 0.15;
  r.duplicateRate = 0.1;
  hw::LinkFaultModel a(7, "unit");
  hw::LinkFaultModel b(7, "unit");
  a.setDefaultRates(r);
  b.setDefaultRates(r);
  for (int i = 0; i < 4000; ++i) {
    const hw::LinkFaultOutcome oa = a.judge(i % 5, 64);
    const hw::LinkFaultOutcome ob = b.judge(i % 5, 64);
    ASSERT_EQ(oa.drop, ob.drop);
    ASSERT_EQ(oa.corrupt, ob.corrupt);
    ASSERT_EQ(oa.duplicate, ob.duplicate);
    ASSERT_EQ(oa.extraDelay, ob.extraDelay);
    ASSERT_EQ(oa.duplicateDelay, ob.duplicateDelay);
    ASSERT_EQ(oa.corruptByteIndex, ob.corruptByteIndex);
    ASSERT_EQ(oa.corruptXor, ob.corruptXor);
    if (oa.corrupt) {
      ASSERT_NE(oa.corruptXor, 0) << "corruption must change the byte";
      ASSERT_LT(oa.corruptByteIndex, 64u);
    }
  }
  // The observed rates track the configured ones (loose 2-sigma-ish
  // bounds; the draw is seeded so this can never flake).
  const hw::LinkFaultStats& st = a.stats();
  EXPECT_EQ(st.packetsSeen, 4000u);
  EXPECT_GT(st.dropped, 4000 * 0.3 * 0.7);
  EXPECT_LT(st.dropped, 4000 * 0.3 * 1.3);
  EXPECT_GT(st.corrupted, 0u);
  EXPECT_GT(st.delayed, 0u);
  EXPECT_GT(st.duplicated, 0u);
}

TEST(LinkFaultModel, CleanRatesNeverFaultAndPerLinkOverridesWin) {
  hw::LinkFaultModel m(11, "unit");
  EXPECT_FALSE(m.anyEnabled());
  for (int i = 0; i < 256; ++i) {
    const hw::LinkFaultOutcome o = m.judge(3, 128);
    EXPECT_FALSE(o.drop);
    EXPECT_FALSE(o.corrupt);
    EXPECT_FALSE(o.duplicate);
    EXPECT_EQ(o.extraDelay, 0u);
  }
  hw::LinkFaultRates r;
  r.dropRate = 1.0;
  m.setLinkRates(9, r);
  EXPECT_TRUE(m.anyEnabled());
  EXPECT_TRUE(m.judge(9, 16).drop);   // overridden link always drops
  EXPECT_FALSE(m.judge(8, 16).drop);  // other links stay clean
}

// --- unit layer: wire checksums ------------------------------------------

TEST(Protocol, RequestChecksumCatchesEverySingleByteFlip) {
  io::FsRequest q;
  q.seq = 7;
  q.srcNode = 3;
  q.pid = 2;
  q.tid = 5;
  q.op = io::FsOp::kWrite;
  q.a0 = 4;
  q.a1 = 1024;
  q.a2 = 4096;
  q.path = "/tmp/ckpt.3";
  for (int i = 0; i < 48; ++i) q.payload.push_back(std::byte(i * 7));
  const std::vector<std::byte> wire = q.encode();

  const auto back = io::FsRequest::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, q.seq);
  EXPECT_EQ(back->op, q.op);
  EXPECT_EQ(back->a2, q.a2);
  EXPECT_EQ(back->path, q.path);
  EXPECT_EQ(back->payload, q.payload);

  // Corrupt every byte position in turn — length fields, payload and
  // the trailing checksum itself — and demand rejection, never a
  // mis-parse. (The checksum is verified before any field is read.)
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::vector<std::byte> bad = wire;
    bad[i] ^= std::byte{0x40};
    EXPECT_FALSE(io::FsRequest::decode(bad).has_value())
        << "flip at byte " << i << " slipped through";
  }
  EXPECT_FALSE(io::FsRequest::decode({}).has_value());
}

TEST(Protocol, ReplyChecksumCatchesEverySingleByteFlip) {
  io::FsReply p;
  p.seq = 9;
  p.srcNode = 1;
  p.pid = 4;
  p.tid = 2;
  p.result = -5;
  for (int i = 0; i < 32; ++i) p.payload.push_back(std::byte(255 - i));
  const std::vector<std::byte> wire = p.encode();
  const auto back = io::FsReply::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->result, p.result);
  EXPECT_EQ(back->payload, p.payload);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::vector<std::byte> bad = wire;
    bad[i] ^= std::byte{0x01};
    EXPECT_FALSE(io::FsReply::decode(bad).has_value())
        << "flip at byte " << i << " slipped through";
  }
}

// --- cluster harness -----------------------------------------------------

struct RunOpts {
  hw::LinkFaultRates faults;     // collective-network default rates
  int spareIoNodes = 0;
  sim::Cycle crashCiodAt = 0;    // cycles after job load; 0 = never
  bool watchAndFailover = false; // play service node on storm
  sim::Cycle requestTimeout = 300'000;
  sim::Cycle maxTimeout = 2'400'000;
  int maxRetries = 6;
  sim::Cycle failoverGrace = 0;
  std::uint64_t seed = 42;
  int computeNodes = 4;
  int procsPerNode = 2;
};

struct IoRun {
  bool ok = false;
  sim::Cycle elapsed = 0;
  std::vector<std::vector<std::uint64_t>> samples;
  std::vector<std::vector<std::byte>> files;  // per rank, post-run
  cnk::FshipStats fship;
  io::CiodStats ciod;
  hw::LinkFaultStats link;
  std::uint64_t rasIoTimeouts = 0;
  std::uint64_t rasIoDead = 0;
  std::size_t pendingOps = 0;  // in-flight fship ops left after drain
};

IoRun runIoCluster(const RunOpts& o) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = o.computeNodes;
  cfg.ioNodes = 1;
  cfg.computeNodesPerIoNode = o.computeNodes;
  cfg.spareIoNodes = o.spareIoNodes;
  cfg.seed = o.seed;
  cfg.collectiveFaults = o.faults;
  cfg.cnk.fship.requestTimeout = o.requestTimeout;
  cfg.cnk.fship.maxTimeout = o.maxTimeout;
  cfg.cnk.fship.maxRetries = o.maxRetries;
  cfg.cnk.fship.failoverGrace = o.failoverGrace;

  IoRun r;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(600'000'000)) return r;

  apps::IoKernelParams ip;
  ip.chunks = 3;
  ip.chunkBytes = 4 << 10;
  ip.computeBetween = 20'000;
  kernel::JobSpec job;
  job.processes = o.procsPerNode;
  job.exe = apps::ioKernelImage(ip);

  const int ranks = o.computeNodes * o.procsPerNode;
  r.samples.resize(static_cast<std::size_t>(ranks));
  for (int rank = 0; rank < ranks; ++rank) {
    cluster.attachSamples(rank, 0,
                          &r.samples[static_cast<std::size_t>(rank)]);
  }

  sim::Engine& eng = cluster.engine();
  bool failedOver = false;
  std::function<void()> watchStorm = [&] {
    if (failedOver) return;
    bool dead = false;
    for (int n = 0; n < o.computeNodes; ++n) {
      if (auto* c = cluster.cnkOn(n);
          c != nullptr && c->fship().ioNodeDead()) {
        dead = true;
      }
    }
    if (dead) {
      cluster.failoverIoNode(0);
      failedOver = true;
      return;
    }
    eng.schedule(20'000, watchStorm);
  };
  const sim::Cycle start = eng.now();
  sim::Cycle crashedAt = 0;
  if (o.crashCiodAt != 0) {
    eng.scheduleAt(start + o.crashCiodAt, [&cluster, &eng, &crashedAt] {
      crashedAt = eng.now();
      cluster.ciod(0).crash();
    });
    if (o.watchAndFailover) {
      eng.scheduleAt(start + o.crashCiodAt + 20'000, watchStorm);
    }
  }

  if (!cluster.loadJob(job) || !cluster.run(8'000'000'000ULL)) return r;
  r.elapsed = eng.now() - start;
  if (o.crashCiodAt != 0) {
    // The crash must land mid-run: after the job loaded, before it
    // finished.
    EXPECT_GT(crashedAt, start) << "CIOD crash fired before the job loaded";
    EXPECT_LT(crashedAt, eng.now()) << "CIOD crash never fired mid-run";
  }
  r.fship = cluster.fshipTotals();
  r.ciod = cluster.ciodTotals();
  r.link = cluster.machine().collectiveFaults().stats();
  for (int rank = 0; rank < ranks; ++rank) {
    // io_kernel writes /tmp/ckpt.<rank mod 10>.
    const std::string path = "/tmp/ckpt." + std::to_string(rank % 10);
    r.files.push_back(cluster.ioRootFs(0).fileContents(path));
  }
  for (int n = 0; n < o.computeNodes; ++n) {
    for (const kernel::RasEvent& e : cluster.kernelOn(n).rasLog()) {
      if (e.code == kernel::RasEvent::Code::kIoTimeout) ++r.rasIoTimeouts;
      if (e.code == kernel::RasEvent::Code::kIoNodeDead) ++r.rasIoDead;
    }
    if (auto* c = cluster.cnkOn(n)) r.pendingOps += c->fship().pendingCount();
  }
  r.ok = true;
  return r;
}

/// Fault-free-equivalence oracle: syscall results (fd numbers, bytes
/// read back) and the bytes that actually landed in every checkpoint
/// file. Sample 1 is elapsed cycles and legitimately differs.
void expectSameResults(const IoRun& faulted, const IoRun& clean,
                       const char* what) {
  ASSERT_EQ(faulted.samples.size(), clean.samples.size()) << what;
  for (std::size_t i = 0; i < clean.samples.size(); ++i) {
    ASSERT_GE(faulted.samples[i].size(), 3u) << what << " rank " << i;
    ASSERT_GE(clean.samples[i].size(), 3u) << what << " rank " << i;
    EXPECT_EQ(faulted.samples[i][0], clean.samples[i][0])
        << what << ": fd diverged on rank " << i;
    EXPECT_EQ(faulted.samples[i][2], clean.samples[i][2])
        << what << ": read-back diverged on rank " << i;
  }
  ASSERT_EQ(faulted.files.size(), clean.files.size()) << what;
  for (std::size_t i = 0; i < clean.files.size(); ++i) {
    EXPECT_FALSE(clean.files[i].empty()) << "control wrote nothing?";
    EXPECT_EQ(faulted.files[i], clean.files[i])
        << what << ": file bytes diverged for rank " << i;
  }
}

// --- seeded fault sweeps -------------------------------------------------

struct FaultMix {
  const char* name;
  hw::LinkFaultRates rates;
};

std::vector<FaultMix> faultMixes() {
  std::vector<FaultMix> mixes;
  {
    FaultMix m{"drop", {}};
    m.rates.dropRate = 0.08;
    mixes.push_back(m);
  }
  {
    FaultMix m{"corrupt", {}};
    m.rates.corruptRate = 0.08;
    mixes.push_back(m);
  }
  {
    FaultMix m{"delay", {}};
    m.rates.delayRate = 0.25;
    m.rates.delayMinCycles = 2'000;
    m.rates.delayMaxCycles = 40'000;
    mixes.push_back(m);
  }
  {
    FaultMix m{"duplicate", {}};
    m.rates.duplicateRate = 0.25;
    mixes.push_back(m);
  }
  {
    FaultMix m{"mixed", {}};
    m.rates.dropRate = 0.04;
    m.rates.corruptRate = 0.04;
    m.rates.delayRate = 0.10;
    m.rates.duplicateRate = 0.10;
    mixes.push_back(m);
  }
  return mixes;
}

void runSweep(std::uint64_t seed) {
  RunOpts clean;
  clean.seed = seed;
  const IoRun control = runIoCluster(clean);
  ASSERT_TRUE(control.ok) << "clean control run wedged (seed " << seed
                          << ")";
  EXPECT_EQ(control.fship.retransmits, 0u)
      << "clean run should never hit the watchdog";
  EXPECT_EQ(control.link.packetsSeen, 0u)
      << "clean run must not consult the fault model";

  for (const FaultMix& mix : faultMixes()) {
    RunOpts o;
    o.seed = seed;
    o.faults = mix.rates;
    const IoRun run = runIoCluster(o);
    ASSERT_TRUE(run.ok) << mix.name << " run wedged (seed " << seed << ")";
    expectSameResults(run, control, mix.name);
    EXPECT_EQ(run.pendingOps, 0u)
        << mix.name << ": ops left hanging after drain";
    EXPECT_EQ(run.fship.eioReturns, 0u)
        << mix.name << ": an op was abandoned despite retry budget";

    // The faults must actually have been injected, and the matching
    // recovery machinery must have visibly absorbed them.
    if (mix.rates.dropRate > 0) {
      EXPECT_GT(run.link.dropped, 0u) << mix.name;
      EXPECT_GT(run.fship.retransmits, 0u) << mix.name;
    }
    if (mix.rates.corruptRate > 0) {
      EXPECT_GT(run.link.corrupted, 0u) << mix.name;
      EXPECT_GT(run.fship.corruptReplies + run.ciod.badChecksums, 0u)
          << mix.name << ": corruption never detected by a checksum";
    }
    if (mix.rates.delayRate > 0) {
      EXPECT_GT(run.link.delayed, 0u) << mix.name;
    }
    if (mix.rates.duplicateRate > 0) {
      EXPECT_GT(run.link.duplicated, 0u) << mix.name;
      EXPECT_GT(run.fship.duplicateReplies + run.ciod.replays +
                    run.ciod.staleDrops,
                0u)
          << mix.name << ": no duplicate was ever suppressed";
    }
  }
}

TEST(FshipFaults, SeededFaultSweepsMatchFaultFree) { runSweep(42); }

// Non-idempotent-write oracle in isolation: append-style writes are
// the op a naive retransmit would double-apply. Explicit offsets plus
// the CIOD replay cache must keep every duplicated/retransmitted
// write single-effect — proven by the final file bytes.
TEST(FshipFaults, DuplicatedWritesApplyExactlyOnce) {
  RunOpts clean;
  const IoRun control = runIoCluster(clean);
  ASSERT_TRUE(control.ok);

  RunOpts o;
  o.faults.duplicateRate = 0.5;
  o.faults.dropRate = 0.05;  // force real retransmits of writes too
  const IoRun run = runIoCluster(o);
  ASSERT_TRUE(run.ok);
  EXPECT_GT(run.link.duplicated, 0u);
  EXPECT_GT(run.fship.retransmits, 0u);
  EXPECT_GT(run.fship.duplicateReplies + run.ciod.replays +
                run.ciod.staleDrops,
            0u);
  expectSameResults(run, control, "duplicate-write");
}

// --- CIOD death ----------------------------------------------------------

TEST(FshipFaults, CiodCrashMidRunFailsOverAndCompletesInFlightIo) {
  RunOpts clean;
  clean.failoverGrace = 200'000'000;
  const IoRun control = runIoCluster(clean);
  ASSERT_TRUE(control.ok);

  RunOpts o;
  o.spareIoNodes = 1;
  o.crashCiodAt = control.elapsed / 3;  // mid checkpoint traffic
  o.watchAndFailover = true;
  o.requestTimeout = 200'000;
  o.maxTimeout = 800'000;
  o.maxRetries = 3;
  o.failoverGrace = 200'000'000;
  const IoRun run = runIoCluster(o);
  ASSERT_TRUE(run.ok) << "failover run wedged";
  expectSameResults(run, control, "ciod-crash-failover");
  EXPECT_GT(run.fship.rehomes, 0u) << "no CNK ever re-homed";
  EXPECT_GT(run.ciod.restores, 0u)
      << "spare CIOD never rebuilt an ioproxy from shadow state";
  EXPECT_GT(run.rasIoDead, 0u) << "timeout storm never declared";
  EXPECT_EQ(run.fship.eioReturns, 0u)
      << "failover must complete in-flight ops, not fail them";
  EXPECT_EQ(run.pendingOps, 0u);
}

TEST(FshipFaults, LostRepliesBecomeEioPlusRasWhenNoSpareExists) {
  RunOpts clean;
  clean.requestTimeout = 50'000;
  clean.maxTimeout = 200'000;
  clean.maxRetries = 2;
  const IoRun control = runIoCluster(clean);
  ASSERT_TRUE(control.ok);

  RunOpts o = clean;
  o.crashCiodAt = control.elapsed / 3;
  // No spare, no grace: the watchdog is the only recourse.
  const IoRun run = runIoCluster(o);
  ASSERT_TRUE(run.ok) << "a lost reply hung the job instead of -EIO";
  EXPECT_GT(run.fship.timeouts, 0u);
  EXPECT_GT(run.fship.eioReturns, 0u)
      << "ops against the dead CIOD must fail with -EIO";
  EXPECT_GT(run.rasIoTimeouts, 0u)
      << "give-up must raise kIoTimeout RAS for the service node";
  EXPECT_GT(run.rasIoDead, 0u) << "storm must declare the I/O node dead";
  EXPECT_EQ(run.pendingOps, 0u) << "threads left blocked forever";
}

// --- channel queueing ----------------------------------------------------

// Kernel-internal chains share pid 0's (pid, tid) channel: a second op
// shipped while the first is still out waits behind it, and both
// complete in shipping order.
TEST(FshipChannel, SecondOpOnBusyChannelCompletesAfterTheFirst) {
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  cnk::FshipClient& f = cluster.cnkOn(0)->fship();

  std::vector<std::int64_t> results;  // in completion order
  auto record = [&results](io::FsReply&& rep) {
    results.push_back(rep.result);
  };
  f.shipRaw(io::FsOp::kMkdir, 0, 0, 0, 0, 0, "/tmp/q", {}, record);
  f.shipRaw(io::FsOp::kMkdir, 0, 0, 0, 0, 0, "/tmp/q", {}, record);
  EXPECT_EQ(f.pendingCount(), 2u);
  cluster.engine().run();

  // The first mkdir creates the directory; the second finds it there.
  ASSERT_EQ(results.size(), 2u) << "an op on a busy channel was lost";
  EXPECT_EQ(results[0], 0);
  EXPECT_EQ(results[1], -kernel::kEEXIST);
  EXPECT_TRUE(cluster.ioRootFs(0).exists("/tmp/q"));
  EXPECT_EQ(f.pendingCount(), 0u);
  EXPECT_EQ(f.stats().retransmits, 0u);
}

// A failover's restore for pid 0 lands on pid 0's channel while an op
// is out there: the restore goes first, the displaced op completes on
// the spare after it, and the channel keeps working.
TEST(FshipChannel, RestoreOnBusyChannelRunsFirstAndKeepsTheChannel) {
  rt::ClusterConfig cfg;
  cfg.spareIoNodes = 1;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  cnk::FshipClient& f = cluster.cnkOn(0)->fship();

  std::vector<std::int64_t> results;
  auto record = [&results](io::FsReply&& rep) {
    results.push_back(rep.result);
  };
  f.shipRaw(io::FsOp::kMkdir, 0, 0, 0, 0, 0, "/tmp/r", {}, record);
  // The CIOD dies before the request reaches it.
  ASSERT_GE(cluster.failoverIoNode(0), 0);
  cluster.engine().run();
  ASSERT_EQ(results.size(), 1u) << "the displaced op never completed";
  EXPECT_EQ(results[0], 0);
  EXPECT_EQ(f.stats().restoresSent, 1u);
  EXPECT_EQ(cluster.ciodTotals().restores, 1u);

  f.shipRaw(io::FsOp::kMkdir, 0, 0, 0, 0, 0, "/tmp/r", {}, record);
  cluster.engine().run();
  ASSERT_EQ(results.size(), 2u) << "pid 0's channel stayed parked";
  EXPECT_EQ(results[1], -kernel::kEEXIST);
  EXPECT_EQ(f.pendingCount(), 0u);
}

// --- slow lane: multi-seed sweep ----------------------------------------

TEST(FshipFaultsSlow, MultiSeedSweep) {
  if (std::getenv("FSHIP_FAULTS_SLOW") == nullptr) {
    GTEST_SKIP() << "slow lane only (ctest -C slow -L slow)";
  }
  for (std::uint64_t seed : {1ULL, 7ULL, 1234ULL, 0xDECAFULL}) {
    runSweep(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace bg
