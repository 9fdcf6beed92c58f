// Service-node control subsystem (src/svc): partition lifecycle and
// allocation, FIFO vs EASY-backfill scheduling, RAS aggregation with
// per-code throttling and kernel-ring overflow accounting, and the
// end-to-end drain/retry path after an injected node failure — which
// must replay cycle-exactly from the same seed (schedule-hash witness).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/app.hpp"
#include "sim/rng.hpp"
#include "svc/service_node.hpp"
#include "vm/builder.hpp"

namespace bg {
namespace {

using svc::NodeLifecycle;

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

// --- PartitionManager ---------------------------------------------------

std::vector<rt::KernelKind> cnkKinds(int n) {
  return std::vector<rt::KernelKind>(static_cast<std::size_t>(n),
                                     rt::KernelKind::kCnk);
}

TEST(Partition, AllocatePrefersSmallestContiguousRun) {
  svc::PartitionManager pm(cnkKinds(8));
  for (int n = 0; n < 8; ++n) {
    pm.markBooting(n);
    pm.markReady(n);
  }
  // Occupy nodes 2 and 5: ready runs are [0,1], [3,4], [6,7].
  pm.markRunning(2, 7, 0);
  pm.markRunning(5, 7, 0);

  // A width-2 request should take a tight 2-run, not split a larger
  // one; the lowest-id tight run wins.
  const auto got = pm.allocate(2, rt::KernelKind::kCnk);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[1], 1);
}

TEST(Partition, AllocateFallsBackToScattered) {
  svc::PartitionManager pm(cnkKinds(6));
  for (int n = 0; n < 6; ++n) {
    pm.markBooting(n);
    pm.markReady(n);
  }
  // Fragment the machine: only 0, 2, 4 stay ready.
  pm.markRunning(1, 9, 0);
  pm.markRunning(3, 9, 0);
  pm.markRunning(5, 9, 0);

  const auto got = pm.allocate(3, rt::KernelKind::kCnk);
  EXPECT_EQ(got, (std::vector<int>{0, 2, 4}));
  // More than exists -> unsatisfiable, empty.
  EXPECT_TRUE(pm.allocate(4, rt::KernelKind::kCnk).empty());
}

TEST(Partition, AllocateMatchesKernelKind) {
  std::vector<rt::KernelKind> kinds = cnkKinds(4);
  kinds[3] = rt::KernelKind::kFwk;
  svc::PartitionManager pm(kinds);
  for (int n = 0; n < 4; ++n) {
    pm.markBooting(n);
    pm.markReady(n);
  }
  EXPECT_EQ(pm.readyCount(rt::KernelKind::kFwk), 1);
  const auto fwk = pm.allocate(1, rt::KernelKind::kFwk);
  ASSERT_EQ(fwk.size(), 1u);
  EXPECT_EQ(fwk[0], 3);
  EXPECT_TRUE(pm.allocate(2, rt::KernelKind::kFwk).empty());
  EXPECT_EQ(pm.allocate(3, rt::KernelKind::kCnk).size(), 3u);
}

TEST(Partition, LifecycleAndBusyAccounting) {
  svc::PartitionManager pm(cnkKinds(2));
  EXPECT_EQ(pm.state(0), NodeLifecycle::kReset);
  pm.markBooting(0);
  pm.markReady(0);
  pm.markRunning(0, 1, 1000);
  EXPECT_EQ(pm.jobOn(0), 1u);
  pm.release(0, 4000);
  EXPECT_EQ(pm.state(0), NodeLifecycle::kReady);
  EXPECT_EQ(pm.busyCycles(0), 3000u);

  pm.markRunning(0, 2, 5000);
  pm.markDown(0, 6000);  // fatal mid-job still closes the interval
  EXPECT_EQ(pm.busyCycles(0), 4000u);
  EXPECT_EQ(pm.failuresOf(0), 1u);
  pm.markReset(0);
  EXPECT_EQ(pm.state(0), NodeLifecycle::kReset);
}

// --- Scheduler policies -------------------------------------------------

svc::JobRecord makeJob(svc::JobId id, rt::KernelKind kind, int nodes,
                       sim::Cycle est) {
  svc::JobRecord jr;
  jr.id = id;
  jr.desc.kernel = kind;
  jr.desc.nodes = nodes;
  jr.desc.estCycles = est;
  return jr;
}

TEST(Scheduler, FifoHeadOfLineBlocks) {
  // 2 ready nodes; head wants 4. FIFO launches nothing even though the
  // narrow job behind it would fit.
  svc::JobRecord wide = makeJob(1, rt::KernelKind::kCnk, 4, 1000);
  svc::JobRecord narrow = makeJob(2, rt::KernelKind::kCnk, 1, 100);
  svc::SchedContext ctx;
  ctx.now = 0;
  ctx.queue = {&wide, &narrow};
  ctx.readyNodes = [](rt::KernelKind) { return 2; };

  svc::FifoPolicy fifo;
  EXPECT_TRUE(fifo.select(ctx).empty());

  // With the wide job absent, FIFO launches in order.
  ctx.queue = {&narrow};
  EXPECT_EQ(fifo.select(ctx), (std::vector<std::size_t>{0}));
}

TEST(Scheduler, BackfillRunsShortJobBehindBlockedHead) {
  // 2 ready + 2 freed at cycle 1000 by the running job. Head needs 4,
  // so its reservation is cycle 1000 with zero spare nodes. A narrow
  // job estimated to finish by 1000 may backfill; one estimated past
  // the reservation may not.
  svc::JobRecord wide = makeJob(1, rt::KernelKind::kCnk, 4, 5000);
  svc::JobRecord shortJob = makeJob(2, rt::KernelKind::kCnk, 1, 900);
  svc::JobRecord longJob = makeJob(3, rt::KernelKind::kCnk, 1, 5000);
  svc::SchedContext ctx;
  ctx.now = 0;
  ctx.queue = {&wide, &longJob, &shortJob};
  ctx.readyNodes = [](rt::KernelKind) { return 2; };
  ctx.running.push_back(
      svc::RunningJobInfo{9, rt::KernelKind::kCnk, 2, 1000});

  svc::BackfillPolicy bf;
  // Only the short job (queue index 2) backfills.
  EXPECT_EQ(bf.select(ctx), (std::vector<std::size_t>{2}));
}

TEST(Scheduler, BackfillStillFifoWhenHeadFits) {
  svc::JobRecord a = makeJob(1, rt::KernelKind::kCnk, 1, 1000);
  svc::JobRecord b = makeJob(2, rt::KernelKind::kCnk, 1, 1000);
  svc::SchedContext ctx;
  ctx.now = 0;
  ctx.queue = {&a, &b};
  ctx.readyNodes = [](rt::KernelKind) { return 2; };
  svc::BackfillPolicy bf;
  EXPECT_EQ(bf.select(ctx), (std::vector<std::size_t>{0, 1}));
}

// --- RAS aggregation ----------------------------------------------------

TEST(Ras, PerCodeThrottlingSparesFatals) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 1;
  rt::Cluster cluster(cfg);
  kernel::KernelBase& k = cluster.kernelOn(0);

  svc::RasAggregatorConfig rcfg;
  rcfg.maxPerCodePerWindow = 4;
  svc::RasAggregator agg(rcfg);
  agg.attach(0, &k);

  for (int i = 0; i < 10; ++i) {
    k.logRas(kernel::RasEvent::Code::kSegv, 1, 1, 0);
  }
  for (int i = 0; i < 6; ++i) {
    k.logRas(kernel::RasEvent::Code::kNodeFailure,
             kernel::RasEvent::Severity::kFatal, 0, 0, 0);
  }
  agg.poll(0);

  // 4 segvs admitted, 6 throttled; fatals bypass the throttle.
  EXPECT_EQ(agg.accepted(), 10u);
  EXPECT_EQ(agg.throttled(), 6u);
  EXPECT_EQ(agg.countByCode(kernel::RasEvent::Code::kSegv), 10u);
  EXPECT_EQ(agg.countBySeverity(kernel::RasEvent::Severity::kFatal), 6u);
  std::size_t fatalsInStream = 0;
  for (const auto& se : agg.stream()) {
    if (se.event.severity == kernel::RasEvent::Severity::kFatal) {
      ++fatalsInStream;
    }
  }
  EXPECT_EQ(fatalsInStream, 6u);
}

TEST(Ras, KernelRingOverflowIsCountedNotLost) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 1;
  rt::Cluster cluster(cfg);
  kernel::KernelBase& k = cluster.kernelOn(0);
  k.setRasLogCapacity(8);

  svc::RasAggregator agg;
  agg.attach(0, &k);

  for (int i = 0; i < 20; ++i) {
    k.logRas(kernel::RasEvent::Code::kSegv, 1, 1,
             static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(k.rasLog().size(), 8u);
  EXPECT_EQ(k.rasDropped(), 12u);

  agg.poll(0);
  // The seq cursor steps over the gap: the 8 survivors are consumed,
  // the 12 lost ones show up in dropped().
  EXPECT_EQ(agg.accepted() + agg.throttled(), 8u);
  EXPECT_EQ(agg.dropped(), 12u);
  EXPECT_EQ(agg.stream().front().event.detail, 12u);

  // A second poll is a no-op: the cursor does not rewind.
  EXPECT_EQ(agg.poll(0), 0u);
}

// --- End-to-end: scheduling, node failure, drain + retry ----------------

struct StreamOutcome {
  std::uint64_t hash = 0;
  std::uint64_t completed = 0;
  std::uint64_t retries = 0;
  bool drained = false;
};

StreamOutcome runSeededStream(std::uint64_t seed, bool injectFailure) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.seed = seed;
  rt::Cluster cluster(cfg);
  svc::ServiceNode sn(cluster, {});

  sim::Rng rng(seed, "svc-test");
  for (int i = 0; i < 8; ++i) {
    svc::JobDesc jd;
    jd.name = "job" + std::to_string(i);
    jd.kernel = rt::KernelKind::kCnk;
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(2));
    const std::uint64_t reps = 10 + rng.nextBelow(10);
    jd.exe = workImage(jd.name, reps, 10'000);
    jd.estCycles = reps * 10'000 + 50'000;
    sn.submit(jd);
  }
  if (injectFailure) sn.injectNodeFailure(1, 300'000);

  StreamOutcome out;
  out.drained = sn.runUntilDrained(50'000'000);
  const svc::SvcMetrics m = sn.metrics();
  out.hash = m.scheduleHash;
  out.completed = m.jobsCompleted;
  out.retries = m.count(svc::SvcCounter::kRetries);
  return out;
}

TEST(ServiceNode, DrainsMixedQueueAndRetriesAfterNodeLoss) {
  const StreamOutcome out = runSeededStream(7, true);
  EXPECT_TRUE(out.drained);
  EXPECT_EQ(out.completed, 8u);  // the victim retried, then completed
  EXPECT_GE(out.retries, 1u);
}

TEST(ServiceNode, SameSeedSameScheduleHash) {
  const StreamOutcome a = runSeededStream(11, true);
  const StreamOutcome b = runSeededStream(11, true);
  EXPECT_TRUE(a.drained);
  EXPECT_TRUE(b.drained);
  EXPECT_EQ(a.hash, b.hash);
  // And the failure visibly alters the schedule.
  const StreamOutcome c = runSeededStream(11, false);
  EXPECT_NE(a.hash, c.hash);
}

TEST(ServiceNode, HeterogeneousKindsRouteJobsToMatchingNodes) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 3;
  cfg.nodeKernels = {rt::KernelKind::kCnk, rt::KernelKind::kCnk,
                     rt::KernelKind::kFwk};
  rt::Cluster cluster(cfg);
  svc::ServiceNode sn(cluster, {});

  svc::JobDesc cj;
  cj.name = "cnk-job";
  cj.kernel = rt::KernelKind::kCnk;
  cj.nodes = 2;
  cj.exe = workImage(cj.name, 10, 10'000);
  const svc::JobId cid = sn.submit(cj);

  svc::JobDesc fj;
  fj.name = "fwk-job";
  fj.kernel = rt::KernelKind::kFwk;
  fj.nodes = 1;
  fj.exe = workImage(fj.name, 10, 10'000);
  const svc::JobId fid = sn.submit(fj);

  ASSERT_TRUE(sn.runUntilDrained(200'000'000));
  EXPECT_EQ(sn.job(cid)->state, svc::JobState::kCompleted);
  EXPECT_EQ(sn.job(fid)->state, svc::JobState::kCompleted);
  EXPECT_EQ(sn.partitions().kernelOf(2), rt::KernelKind::kFwk);
}

TEST(ServiceNode, OverwideJobFailsCleanlyAndQueueMovesOn) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  svc::ServiceNode sn(cluster, {});

  svc::JobDesc wide;
  wide.name = "wide";
  wide.kernel = rt::KernelKind::kCnk;
  wide.nodes = 5;  // wider than the machine: can never launch
  wide.exe = workImage(wide.name, 5, 10'000);
  const svc::JobId wid = sn.submit(wide);

  svc::JobDesc ok;
  ok.name = "ok";
  ok.kernel = rt::KernelKind::kCnk;
  ok.nodes = 1;
  ok.exe = workImage(ok.name, 5, 10'000);
  const svc::JobId oid = sn.submit(ok);

  // Backfill lets the narrow job through; the impossible one stays
  // queued, so the stream never fully drains — cap the run.
  sn.start();
  cluster.engine().runWhile(
      [&] { return sn.job(oid)->state == svc::JobState::kCompleted; },
      20'000'000);
  EXPECT_EQ(sn.job(oid)->state, svc::JobState::kCompleted);
  EXPECT_EQ(sn.job(wid)->state, svc::JobState::kQueued);
}

}  // namespace
}  // namespace bg
