// End-to-end application checkpoint/restart (the robustness tentpole):
//
//  - ckpt_save cuts a consistent image at the barrier, two-phase
//    commits it onto the I/O node, and wakes the app with a saved /
//    resumed flag in r0;
//  - a job reloaded in restore mode resumes right after the barrier
//    and produces the same final answer as an uninterrupted run (the
//    resume oracle), bit-identically across double runs;
//  - a CIOD crash mid-ship fails the attempt but leaves the previous
//    committed image byte-identical (two-phase commit), and restore
//    from it still works after the daemon reboots;
//  - the service node's checkpoint-then-preempt window: victims
//    checkpoint before the kill and their relaunch resumes mid-stream;
//    a blown deadline falls back to the plain kill-and-requeue path;
//  - an uncorrectable-ECC node loss requeues the victim and the retry
//    resumes from the newest committed sequence;
//  - CKPT_SLOW=1 unlocks a multi-seed fault sweep (CIOD crashes, UEs,
//    control-plane crashes against checkpointing streams) replayed
//    twice per seed and checked for bit-identical schedules.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster_test_util.hpp"
#include "cnk/ckpt_image.hpp"
#include "fault_schedule.hpp"
#include "kernel/syscalls.hpp"
#include "sim/hash.hpp"
#include "sim/rng.hpp"
#include "svc/failover.hpp"

namespace bg {
namespace {

using test::emitExit;

std::int64_t sys(kernel::Sys s) { return static_cast<std::int64_t>(s); }

/// Two compute phases split by a ckpt_save. Samples prove what ran:
/// sample[0] = ckpt_save's return (0 = image saved, 1 = resumed from
/// one), sample[1] = the accumulator, whose final value requires both
/// phases to have executed exactly once.
vm::Program ckptApp(std::int64_t reps1, std::int64_t reps2) {
  vm::ProgramBuilder b("ckpt-app");
  b.li(20, 0);
  const auto top1 = b.loopBegin(21, reps1);
  b.compute(2'000);
  b.addi(20, 20, 7);
  b.loopEnd(21, top1);
  b.syscall(sys(kernel::Sys::kCkptSave));
  b.sample(0);
  const auto top2 = b.loopBegin(21, reps2);
  b.compute(2'000);
  b.addi(20, 20, 3);
  b.loopEnd(21, top2);
  b.sample(20);
  emitExit(b);
  return std::move(b).build();
}

std::shared_ptr<kernel::ElfImage> workImage(const std::string& name,
                                            std::uint64_t reps,
                                            std::uint64_t cyclesPerRep) {
  vm::ProgramBuilder b(name);
  const auto top = b.loopBegin(16, static_cast<std::int64_t>(reps));
  b.compute(cyclesPerRep);
  b.loopEnd(16, top);
  b.halt(0);
  return kernel::ElfImage::makeExecutable(name, std::move(b).build());
}

std::uint64_t countRas(const kernel::KernelBase& k,
                       kernel::RasEvent::Code code) {
  std::uint64_t n = 0;
  for (const auto& e : k.rasLog()) {
    if (e.code == code) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------
// Kernel engine: save, resume oracle, two-phase commit under faults
// ---------------------------------------------------------------------

TEST(Ckpt, AppCkptSaveCommitsImageAndReportsSaved) {
  std::unique_ptr<rt::Cluster> cluster;
  auto r = test::runProgram({}, ckptApp(10, 10), &cluster);
  ASSERT_TRUE(r.completed);
  cnk::CnkKernel* k = cluster->cnkOn(0);
  EXPECT_EQ(k->ckptCommits(), 1u);
  EXPECT_EQ(k->ckptSeqCommitted(), 1u);
  EXPECT_EQ(k->ckptFailures(), 0u);
  EXPECT_GT(k->lastCkptBytes(), 0u);
  ASSERT_EQ(r.samples.size(), 2u);
  EXPECT_EQ(r.samples[0], 0u) << "first run saves, it does not resume";
  EXPECT_EQ(r.samples[1], 10u * 7 + 10u * 3);
  // Two-phase commit landed: final image present, tmp renamed away.
  io::RamFs& fs = cluster->ioRootFs(0);
  EXPECT_TRUE(fs.exists(cnk::ckpt::imagePath(0, 0)));
  EXPECT_FALSE(fs.exists(cnk::ckpt::imageTmpPath(0, 0)));
  EXPECT_EQ(fs.fileContents(cnk::ckpt::imagePath(0, 0)).size(),
            k->lastCkptBytes());
  EXPECT_EQ(countRas(*k, kernel::RasEvent::Code::kCkptBegin), 1u);
  EXPECT_EQ(countRas(*k, kernel::RasEvent::Code::kCkptCommit), 1u);
  EXPECT_EQ(countRas(*k, kernel::RasEvent::Code::kCkptFailed), 0u);
}

TEST(Ckpt, RestoreResumesAfterBarrierWithSameFinalAnswer) {
  std::unique_ptr<rt::Cluster> cluster;
  auto r = test::runProgram({}, ckptApp(10, 40), &cluster);
  ASSERT_TRUE(r.completed);
  cnk::CnkKernel* k = cluster->cnkOn(0);
  ASSERT_EQ(k->ckptSeqCommitted(), 1u);
  const std::uint64_t fullAnswer = r.samples.at(1);

  // Reload the same executable in restore mode: the node rebuilds the
  // job from the committed image and replays only the second phase.
  k->unloadJob();
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("test", ckptApp(10, 40));
  job.restore = true;
  std::vector<std::uint64_t> samples;
  cluster->attachSamples(0, 0, &samples);
  ASSERT_TRUE(cluster->loadJob(job));
  ASSERT_TRUE(cluster->run());
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0], 1u) << "ckpt_save must report 'resumed'";
  EXPECT_EQ(samples[1], fullAnswer) << "resume oracle violated";
  EXPECT_EQ(k->ckptRestores(), 1u);
  EXPECT_EQ(k->ckptCommits(), 1u) << "resume must not re-run phase one";
  EXPECT_EQ(countRas(*k, kernel::RasEvent::Code::kCkptRestore), 1u);
}

TEST(Ckpt, RestoreWithoutImageFallsBackToScratch) {
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("test", ckptApp(4, 4));
  job.restore = true;  // nothing was ever checkpointed
  std::vector<std::uint64_t> samples;
  cluster.attachSamples(0, 0, &samples);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0], 0u) << "scratch start: saved, not resumed";
  EXPECT_EQ(samples[1], 4u * 7 + 4u * 3);
  cnk::CnkKernel* k = cluster.cnkOn(0);
  EXPECT_EQ(k->ckptRestores(), 0u);
  EXPECT_GE(k->ckptFailures(), 1u);
  EXPECT_GE(countRas(*k, kernel::RasEvent::Code::kCkptFailed), 1u);
}

TEST(Ckpt, CiodCrashMidShipKeepsPreviousImageValid) {
  rt::ClusterConfig cfg;
  // Tight fship reliability so the severed ship chain resolves fast.
  cfg.cnk.fship.requestTimeout = 20'000;
  cfg.cnk.fship.maxTimeout = 80'000;
  cfg.cnk.fship.maxRetries = 2;
  cfg.cnk.fship.failoverGrace = 0;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("test", ckptApp(10, 2'000));
  ASSERT_TRUE(cluster.loadJob(job));
  cnk::CnkKernel* k = cluster.cnkOn(0);

  // Drive to the app's own commit (sequence 1).
  ASSERT_TRUE(cluster.engine().runWhile(
      [&] { return k->ckptCommits() == 1; }, 100'000'000));
  io::RamFs& fs = cluster.ioRootFs(0);
  const std::string path = cnk::ckpt::imagePath(0, 0);
  const std::vector<std::byte> committed = fs.fileContents(path);
  ASSERT_FALSE(committed.empty());

  // Second, service-initiated checkpoint — and a CIOD crash while its
  // image is in flight.
  bool acked = false;
  bool ackOk = true;
  const sim::Cycle now = cluster.engine().now();
  cluster.engine().scheduleAt(now + 1, [&] {
    k->requestCheckpoint([&](bool ok) {
      acked = true;
      ackOk = ok;
    });
  });
  cluster.engine().scheduleAt(now + 5'000, [&] {
    if (!cluster.ciod(0).crashed()) cluster.ciod(0).crash();
  });
  ASSERT_TRUE(cluster.engine().runWhile([&] { return acked; },
                                        200'000'000));
  EXPECT_FALSE(ackOk) << "a severed ship chain must fail the attempt";
  EXPECT_EQ(k->ckptCommits(), 1u);
  EXPECT_EQ(k->ckptSeqCommitted(), 1u);
  EXPECT_GE(k->ckptFailures(), 1u);
  // The crash hit the *tmp* half of the two-phase commit: the
  // committed image is byte-identical to before the attempt.
  EXPECT_EQ(fs.fileContents(path), committed);

  // After an in-place CIOD reboot, restore from that image still works.
  cluster.rebootIoNode(0);
  k->unloadJob();
  kernel::JobSpec again;
  again.exe = kernel::ElfImage::makeExecutable("test", ckptApp(10, 2'000));
  again.restore = true;
  std::vector<std::uint64_t> samples;
  cluster.attachSamples(0, 0, &samples);
  ASSERT_TRUE(cluster.loadJob(again));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0], 1u);
  EXPECT_EQ(samples[1], 10u * 7 + 2'000u * 3);
  EXPECT_EQ(k->ckptRestores(), 1u);
}

TEST(Ckpt, DoubleRunIsBitIdentical) {
  auto runOnce = [] {
    std::unique_ptr<rt::Cluster> cluster;
    auto r = test::runProgram({}, ckptApp(10, 40), &cluster);
    EXPECT_TRUE(r.completed);
    std::vector<std::uint64_t> digest = r.samples;
    digest.push_back(cluster->cnkOn(0)->lastCkptBytes());
    digest.push_back(cluster->engine().now());
    return digest;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

// The image body is pinned byte for byte. The scenario puts every kind
// of 64KB chunk the sparse serializer distinguishes into one image:
//   - heap frames that were never written (most of the region);
//   - a frame written and then zeroed again (present, all zero: elided);
//   - a frame whose only non-zero byte is its last one (kept);
//   - an extra region that is not frame-aligned and ends in a 1000-byte
//     tail: its first chunk straddles two never-written frames, its
//     second straddles into a written frame but reads as zero, and its
//     tail chunk holds the region's last byte (kept).
TEST(Ckpt, ImageBodyPinnedAcrossChunkKinds) {
  constexpr std::uint64_t kFrame = cnk::ckpt::kChunkBytes;
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("test", ckptApp(10, 10));
  ASSERT_TRUE(cluster.loadJob(job));
  cnk::CnkKernel* k = cluster.cnkOn(0);
  kernel::Process* p = cluster.processOfRank(0);
  ASSERT_NE(p, nullptr);
  const kernel::MemRegionDesc* heap = p->regionNamed("heapStack");
  ASSERT_NE(heap, nullptr);
  ASSERT_EQ(heap->pbase % kFrame, 0u);
  ASSERT_GT(heap->size, 128 * kFrame);

  hw::PhysMem& mem = cluster.machine().node(0).mem();
  const std::byte stamp[8] = {std::byte{0x11}, std::byte{0x22},
                              std::byte{0x33}, std::byte{0x44},
                              std::byte{0x55}, std::byte{0x66},
                              std::byte{0x77}, std::byte{0x88}};
  const hw::PAddr zeroed = heap->pbase + 40 * kFrame + 512;
  mem.write(zeroed, stamp);
  mem.zero(zeroed, sizeof stamp);
  mem.write(heap->pbase + 42 * kFrame - 1, std::span(stamp).first(1));

  kernel::MemRegionDesc tail;
  tail.name = "tail";
  tail.vbase = 0x7000'0000ULL;
  tail.pbase = heap->pbase + 100 * kFrame + 4096;
  tail.size = 2 * kFrame + 1000;
  tail.perms = hw::kPermRW;
  tail.pageSize = hw::kPage4K;
  p->regions.push_back(tail);
  mem.write(tail.pbase + tail.size - 1, std::span(stamp).last(1));

  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(k->ckptCommits(), 1u);
  const std::vector<std::byte> image =
      cluster.ioRootFs(0).fileContents(cnk::ckpt::imagePath(0, 0));
  ASSERT_GT(image.size(), 8u);
  const std::span<const std::byte> body =
      std::span(image).first(image.size() - 8);
  sim::Fnv1a h;
  h.mixBytes(body);
  EXPECT_EQ(image.size(), 198'551u);
  EXPECT_EQ(h.digest(), 0x74a298ad3c852464ULL);

  std::uint64_t seal = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    seal |= static_cast<std::uint64_t>(image[body.size() + i]) << (i * 8);
  }
  EXPECT_EQ(seal, sim::hashBytes(body));
}

// ---------------------------------------------------------------------
// Service node: checkpoint-then-preempt, requeue-resume
// ---------------------------------------------------------------------

TEST(CkptSvc, PreemptChecksPointsThenResumesVictim) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  cfg.seed = 31;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.policy = svc::SchedPolicyKind::kFairShare;
  svc::AccountSpec low;
  low.name = "batch";
  low.qos = svc::Qos::kLow;
  svc::AccountSpec high;
  high.name = "urgent";
  high.qos = svc::Qos::kHigh;
  snCfg.fairshare.accounts = {low, high};
  snCfg.ckpt.onPreempt = true;
  snCfg.ckpt.deadlineCycles = 2'000'000;
  svc::ServiceHost host(cluster, snCfg);

  int arrived = 0;
  svc::JobDesc lowJd;
  lowJd.name = "low";
  lowJd.nodes = 2;
  lowJd.account = 1;
  lowJd.exe = workImage("low", 600, 10'000);
  lowJd.estCycles = 6'200'000;
  cluster.engine().scheduleAt(10'000, [&host, lowJd, &arrived]() mutable {
    host.submit(std::move(lowJd));
    ++arrived;
  });
  svc::JobDesc hiJd;
  hiJd.name = "hi";
  hiJd.nodes = 2;
  hiJd.account = 2;
  hiJd.exe = workImage("hi", 10, 10'000);
  hiJd.estCycles = 200'000;
  cluster.engine().scheduleAt(600'000, [&host, hiJd, &arrived]() mutable {
    host.submit(std::move(hiJd));
    ++arrived;
  });

  host.start();
  ASSERT_TRUE(cluster.engine().runWhile(
      [&] { return arrived == 2 && host.drained(); }, 2'000'000'000));

  svc::ServiceNode& sn = host.node();
  EXPECT_EQ(sn.preemptions(), 1u);
  EXPECT_EQ(sn.ckptRequests(), 1u);
  EXPECT_EQ(sn.ckptCommits(), 1u);
  EXPECT_EQ(sn.ckptFallbacks(), 0u);
  EXPECT_EQ(sn.ckptResumes(), 1u);
  const svc::JobRecord* lowJr = nullptr;
  for (const auto& jr : sn.jobs()) {
    EXPECT_EQ(jr.state, svc::JobState::kCompleted) << jr.desc.name;
    if (jr.desc.name == "low") lowJr = &jr;
  }
  ASSERT_NE(lowJr, nullptr);
  EXPECT_GE(lowJr->ckptSeq, 1u) << "victim never recorded its commit";
  EXPECT_EQ(lowJr->preemptCount, 1);
  EXPECT_EQ(lowJr->attempts, 2);
  // The window's milestones are on the decision timeline.
  int reqNotes = 0;
  int commitNotes = 0;
  int resumeNotes = 0;
  for (const std::string& line : sn.timeline()) {
    if (line.find("ckpt_req") != std::string::npos) ++reqNotes;
    if (line.find("ckpt_commit") != std::string::npos) ++commitNotes;
    if (line.find("resume") != std::string::npos) ++resumeNotes;
  }
  EXPECT_EQ(reqNotes, 1);
  EXPECT_EQ(commitNotes, 1);
  EXPECT_EQ(resumeNotes, 1);
  // Metrics surface the same counters.
  const svc::SvcMetrics m = host.metrics();
  EXPECT_EQ(m.ckptRequests, 1u);
  EXPECT_EQ(m.ckptCommits, 1u);
  EXPECT_EQ(m.ckptResumes, 1u);
  // And the kernels really restored (the resume was not a silent
  // scratch fallback): every node of the relaunched 2-node victim
  // applied an image.
  std::uint64_t kernelRestores = 0;
  for (int n = 0; n < 2; ++n) kernelRestores += cluster.cnkOn(n)->ckptRestores();
  EXPECT_EQ(kernelRestores, 2u);
}

TEST(CkptSvc, BlownDeadlineFallsBackToScratchRequeue) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  cfg.seed = 32;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.policy = svc::SchedPolicyKind::kFairShare;
  svc::AccountSpec low;
  low.name = "batch";
  low.qos = svc::Qos::kLow;
  svc::AccountSpec high;
  high.name = "urgent";
  high.qos = svc::Qos::kHigh;
  snCfg.fairshare.accounts = {low, high};
  snCfg.ckpt.onPreempt = true;
  snCfg.ckpt.deadlineCycles = 1;  // expires before any node can commit
  svc::ServiceHost host(cluster, snCfg);

  int arrived = 0;
  svc::JobDesc lowJd;
  lowJd.name = "low";
  lowJd.nodes = 2;
  lowJd.account = 1;
  lowJd.exe = workImage("low", 600, 10'000);
  lowJd.estCycles = 6'200'000;
  cluster.engine().scheduleAt(10'000, [&host, lowJd, &arrived]() mutable {
    host.submit(std::move(lowJd));
    ++arrived;
  });
  svc::JobDesc hiJd;
  hiJd.name = "hi";
  hiJd.nodes = 2;
  hiJd.account = 2;
  hiJd.exe = workImage("hi", 10, 10'000);
  hiJd.estCycles = 200'000;
  cluster.engine().scheduleAt(600'000, [&host, hiJd, &arrived]() mutable {
    host.submit(std::move(hiJd));
    ++arrived;
  });

  host.start();
  ASSERT_TRUE(cluster.engine().runWhile(
      [&] { return arrived == 2 && host.drained(); }, 2'000'000'000));

  svc::ServiceNode& sn = host.node();
  EXPECT_EQ(sn.preemptions(), 1u);
  EXPECT_EQ(sn.ckptRequests(), 1u);
  EXPECT_EQ(sn.ckptFallbacks(), 1u);
  EXPECT_EQ(sn.ckptCommits(), 0u);
  EXPECT_EQ(sn.ckptResumes(), 0u) << "fallback relaunches from scratch";
  for (const auto& jr : sn.jobs()) {
    EXPECT_EQ(jr.state, svc::JobState::kCompleted) << jr.desc.name;
  }
  int timeoutNotes = 0;
  for (const std::string& line : sn.timeline()) {
    if (line.find("ckpt_timeout") != std::string::npos) ++timeoutNotes;
  }
  EXPECT_EQ(timeoutNotes, 1);
}

TEST(CkptSvc, UeRequeueResumesFromCommittedSequence) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 1;
  cfg.seed = 33;
  rt::Cluster cluster(cfg);
  svc::ServiceNodeConfig snCfg;
  svc::ServiceHost host(cluster, snCfg);

  // The app commits its own checkpoint early, then computes a long
  // tail; the UE lands in the tail, well after a control-loop poll has
  // recorded the committed sequence on the job.
  svc::JobDesc jd;
  jd.name = "ckptjob";
  jd.nodes = 1;
  jd.exe = kernel::ElfImage::makeExecutable("ckptjob", ckptApp(10, 2'000));
  jd.estCycles = 5'000'000;
  jd.maxRetries = 2;
  int arrived = 0;
  cluster.engine().scheduleAt(10'000, [&host, jd, &arrived]() mutable {
    host.submit(std::move(jd));
    ++arrived;
  });
  cluster.engine().scheduleAt(1'500'000, [&cluster, &host] {
    cluster.machine().node(0).injectUncorrectable(0xBAD0'0000ULL);
    if (host.alive()) host.node().poke();
  });

  host.start();
  ASSERT_TRUE(cluster.engine().runWhile(
      [&] { return arrived == 1 && host.drained(); }, 2'000'000'000));

  svc::ServiceNode& sn = host.node();
  ASSERT_EQ(sn.jobs().size(), 1u);
  const svc::JobRecord& jr = sn.jobs()[0];
  EXPECT_EQ(jr.state, svc::JobState::kCompleted);
  EXPECT_EQ(jr.attempts, 2) << "one node loss, one retry";
  EXPECT_GE(jr.ckptSeq, 1u);
  EXPECT_EQ(sn.ckptResumes(), 1u)
      << "the retry must boot into restore, not scratch";
  int resumeNotes = 0;
  for (const std::string& line : sn.timeline()) {
    if (line.find("resume") != std::string::npos) ++resumeNotes;
  }
  EXPECT_EQ(resumeNotes, 1);
}

// ---------------------------------------------------------------------
// Multi-seed fault sweep (slow lane)
// ---------------------------------------------------------------------

struct SweepOutcome {
  std::uint64_t hash = 0;
  std::vector<std::string> timeline;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t ckptRequests = 0;
  std::uint64_t ckptResumes = 0;
  bool drained = false;
};

SweepOutcome runCkptSweep(std::uint64_t seed, int jobCount) {
  const int kNodes = 4;
  rt::ClusterConfig cfg;
  cfg.computeNodes = kNodes;
  cfg.seed = seed;
  // Tight fship reliability so CIOD deaths surface (and severed ckpt
  // ship chains resolve) within the sweep's horizon.
  cfg.cnk.fship.requestTimeout = 20'000;
  cfg.cnk.fship.maxTimeout = 80'000;
  cfg.cnk.fship.maxRetries = 2;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.policy = svc::SchedPolicyKind::kFairShare;
  svc::AccountSpec low;
  low.name = "batch";
  low.qos = svc::Qos::kLow;
  svc::AccountSpec high;
  high.name = "urgent";
  high.qos = svc::Qos::kHigh;
  snCfg.fairshare.accounts = {low, high};
  snCfg.ckpt.onPreempt = true;
  svc::ServiceHost host(cluster, snCfg);

  sim::Rng rng(seed, "ckpt-sweep");
  const sim::Cycle arrivalSpan = static_cast<sim::Cycle>(jobCount) * 60'000;
  struct Arrival {
    sim::Cycle at;
    svc::JobDesc jd;
  };
  std::vector<Arrival> arrivals;
  for (int i = 0; i < jobCount; ++i) {
    svc::JobDesc jd;
    jd.name = "s" + std::to_string(i);
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(2));
    jd.account = static_cast<svc::AccountId>(1 + rng.nextBelow(2));
    const std::uint64_t reps = 20 + rng.nextBelow(200);
    if (rng.nextBelow(2) == 0) {
      // Half the stream checkpoints on its own mid-run.
      jd.exe = kernel::ElfImage::makeExecutable(
          jd.name, ckptApp(static_cast<std::int64_t>(reps / 2),
                           static_cast<std::int64_t>(reps)));
    } else {
      jd.exe = workImage(jd.name, reps, 10'000);
    }
    jd.estCycles = reps * 10'000 + 50'000;
    jd.maxRetries = 3;
    arrivals.push_back({rng.nextBelow(arrivalSpan), std::move(jd)});
  }
  int arrived = 0;
  for (Arrival& a : arrivals) {
    cluster.engine().scheduleAt(a.at, [&host, &arrived, &a] {
      host.submit(std::move(a.jd));
      ++arrived;
    });
  }

  const testing::FaultSchedule faults = testing::FaultSchedule::random(
      seed, kNodes, arrivalSpan + 3'000'000, /*crashes=*/0, /*deaths=*/1,
      /*storms=*/0, /*ioDeaths=*/0, /*ioNodes=*/1, /*memUes=*/0,
      /*ceStorms=*/0, /*coreHangs=*/0, /*ckptIoCrashes=*/1, /*ckptUes=*/1,
      /*ckptSvcCrashes=*/1);
  faults.arm(cluster, host);

  host.start();
  SweepOutcome out;
  out.drained = cluster.engine().runWhile(
      [&] { return arrived == jobCount && host.drained(); }, 3'000'000'000);
  const svc::SvcMetrics m = host.metrics();
  out.hash = m.scheduleHash;
  out.completed = m.jobsCompleted;
  out.failed = m.jobsFailed;
  out.ckptRequests = m.ckptRequests;
  out.ckptResumes = m.ckptResumes;
  if (host.alive()) out.timeline = host.node().timeline();

  EXPECT_TRUE(out.drained) << "stream wedged (seed " << seed << ")";
  EXPECT_EQ(out.completed + out.failed,
            static_cast<std::uint64_t>(jobCount))
      << "lost a job (seed " << seed << ")";
  return out;
}

TEST(CkptSlow, MultiSeedFaultSweepReplaysBitIdentically) {
  if (std::getenv("CKPT_SLOW") == nullptr) {
    GTEST_SKIP() << "set CKPT_SLOW=1 (slow ctest lane) to run";
  }
  for (std::uint64_t seed = 900; seed < 908; ++seed) {
    const SweepOutcome a = runCkptSweep(seed, 24);
    const SweepOutcome b = runCkptSweep(seed, 24);
    EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
    EXPECT_EQ(a.timeline, b.timeline) << "seed " << seed;
    EXPECT_EQ(a.ckptRequests, b.ckptRequests) << "seed " << seed;
    EXPECT_EQ(a.ckptResumes, b.ckptResumes) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bg
