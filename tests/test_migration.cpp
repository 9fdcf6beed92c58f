// Torus hard-fault plane, service-node half: the RAS link-health
// predictor escalating to checkpoint-then-migrate.
//
//  - a link death under a running job opens a checkpoint window; every
//    node commits, the job is requeued with no retry charge, and its
//    relaunch restores onto link-healthy nodes — producing the same
//    final answer as an uninterrupted run (the migration resume
//    oracle);
//  - when no link-healthy capacity is left the job keeps running where
//    it is, in degraded route-around mode (counted, never killed);
//  - a CRC-retry storm below ras.linkSickThreshold is ignored; one
//    crossing it trips the predictor exactly like a hard death;
//  - a seeded link-death/storm jobstream — and a composed stream with
//    every prior fault plane layered on top — replays bit-identically
//    (schedule hash + decision timeline) across double runs;
//  - MIGRATION_SLOW=1 unlocks the multi-seed composed sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster_test_util.hpp"
#include "fault_schedule.hpp"
#include "kernel/syscalls.hpp"
#include "sim/rng.hpp"
#include "svc/failover.hpp"
#include "svc_test_util.hpp"

namespace bg {
namespace {

using test::emitExit;
using svc::SvcCounter;
using test::svcCounters;

std::int64_t sys(kernel::Sys s) { return static_cast<std::int64_t>(s); }

/// One long accumulate loop with the answer sampled at the end: the
/// final sample requires every iteration to have executed exactly once,
/// whether the job ran straight through or was checkpointed mid-loop
/// and restored on a different node.
vm::Program migApp(std::int64_t reps) {
  vm::ProgramBuilder b("mig-app");
  b.li(20, 0);
  const auto top = b.loopBegin(21, reps);
  b.compute(10'000);
  b.addi(20, 20, 5);
  b.loopEnd(21, top);
  b.sample(20);
  emitExit(b);
  return std::move(b).build();
}

/// ckptApp twin from test_ckpt: two compute phases split by an
/// application-initiated ckpt_save (used by the composed sweep so half
/// the stream checkpoints on its own).
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

int countNotes(const svc::ServiceNode& sn, const char* what) {
  int n = 0;
  for (const std::string& line : sn.timeline()) {
    if (line.find(what) != std::string::npos) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------
// Migration resume oracle
// ---------------------------------------------------------------------

struct MigRun {
  bool drained = false;
  std::vector<std::uint64_t> samples;  // rank 0's sample sink
  std::uint64_t hash = 0;
  std::vector<std::uint64_t> counters;  // svcCounters
  std::uint64_t migrateRequests = 0;
  std::uint64_t migrateCommits = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migrateFallbacks = 0;
  std::uint64_t degradedJobs = 0;
  std::uint64_t migrateCyclesSaved = 0;
  std::uint64_t ckptResumes = 0;
  std::uint64_t rasMigrateFallbacks = 0;
  int migrateReqNotes = 0;
  int migrateCommitNotes = 0;
  int migrateTimeoutNotes = 0;
  int migrateFallbackNotes = 0;
  int resumeNotes = 0;
  std::vector<std::uint64_t> restoresByNode;
  svc::JobState state = svc::JobState::kQueued;
  int attempts = 0;
  bool node0Sick = false;
};

struct LinkDeathSetup {
  bool linkDeath = true;
  sim::Cycle windowDeadline = 2'000'000;
  /// Crash the pset's CIOD this long after the link death, so the
  /// migrate window's image ship is severed (0 = no crash).
  sim::Cycle ciodCrashDelay = 0;
};

/// One 2-node job on an 8-node (2x2x2) machine with migration armed;
/// optionally a hard directed-link death on node 0 mid-run.
MigRun runLinkDeathJob(const LinkDeathSetup& setup) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 8;
  cfg.seed = 41;
  if (setup.ciodCrashDelay != 0) {
    // Tight fship reliability so the severed ship chain fails fast,
    // and a spare I/O node so the death fails over instead of
    // requeueing the job.
    cfg.cnk.fship.requestTimeout = 20'000;
    cfg.cnk.fship.maxTimeout = 80'000;
    cfg.cnk.fship.maxRetries = 2;
    cfg.spareIoNodes = 1;
  }
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.migrate.enabled = true;
  snCfg.ckptWindowDeadlineCycles = setup.windowDeadline;
  svc::ServiceHost host(cluster, snCfg);

  MigRun out;
  cluster.attachSamples(0, 0, &out.samples);

  svc::JobDesc jd;
  jd.name = "mig";
  jd.nodes = 2;
  jd.exe = kernel::ElfImage::makeExecutable("mig", migApp(600));
  jd.estCycles = 6'200'000;
  int arrived = 0;
  cluster.engine().scheduleAt(10'000, [&host, jd, &arrived]() mutable {
    host.submit(std::move(jd));
    ++arrived;
  });
  if (setup.linkDeath) {
    cluster.engine().scheduleAt(1'000'000, [&cluster, &host] {
      cluster.machine().torus().killLink(0, 0, true);
      if (host.alive()) host.node().poke();
    });
  }
  if (setup.ciodCrashDelay != 0) {
    cluster.engine().scheduleAt(1'000'000 + setup.ciodCrashDelay,
                                [&cluster] {
      if (!cluster.ciod(0).crashed()) cluster.ciod(0).crash();
    });
  }

  host.start();
  out.drained = cluster.engine().runWhile(
      [&] { return arrived == 1 && host.drained(); }, 2'000'000'000);
  svc::ServiceNode& sn = host.node();
  out.hash = sn.scheduleHash();
  out.counters = svcCounters(sn);
  out.migrateRequests = sn.count(SvcCounter::kMigrateRequests);
  out.migrateCommits = sn.count(SvcCounter::kMigrateCommits);
  out.migrations = sn.count(SvcCounter::kMigrations);
  out.migrateFallbacks = sn.count(SvcCounter::kMigrateFallbacks);
  out.degradedJobs = sn.count(SvcCounter::kDegradedJobs);
  out.migrateCyclesSaved = sn.count(SvcCounter::kMigrateCyclesSaved);
  out.ckptResumes = sn.count(SvcCounter::kCkptResumes);
  out.rasMigrateFallbacks =
      sn.ras().countByCode(kernel::RasEvent::Code::kCkptMigrateFallback);
  out.migrateReqNotes = countNotes(sn, "migrate_req");
  out.migrateCommitNotes = countNotes(sn, "migrate_commit");
  out.migrateTimeoutNotes = countNotes(sn, "migrate_timeout");
  out.migrateFallbackNotes = countNotes(sn, "migrate_fallback");
  out.resumeNotes = countNotes(sn, "resume");
  out.node0Sick = sn.linkSick(0);
  for (int n = 0; n < 8; ++n) {
    out.restoresByNode.push_back(cluster.cnkOn(n)->ckptRestores());
  }
  EXPECT_EQ(sn.jobs().size(), 1u);
  if (!sn.jobs().empty()) {
    out.state = sn.jobs()[0].state;
    out.attempts = sn.jobs()[0].attempts;
  }
  if (setup.linkDeath) {
    EXPECT_EQ(countNotes(sn, "link_sick"), 1);
  }
  return out;
}

TEST(MigrationSvc, LinkDeathMigratesOntoHealthyNodesSameFinalAnswer) {
  const MigRun faulted = runLinkDeathJob({});
  const MigRun clean = runLinkDeathJob({.linkDeath = false});

  ASSERT_TRUE(faulted.drained);
  ASSERT_TRUE(clean.drained);
  EXPECT_EQ(faulted.state, svc::JobState::kCompleted);

  // The resume oracle: the migrated job's final answer is the
  // uninterrupted run's, emitted exactly once.
  ASSERT_EQ(clean.samples.size(), 1u);
  EXPECT_EQ(clean.samples[0], 600u * 5);
  EXPECT_EQ(faulted.samples, clean.samples) << "migration oracle violated";

  // Exactly one predictor trip -> one committed window -> one
  // migration, with the whole first attempt's progress preserved.
  EXPECT_EQ(faulted.migrateRequests, 1u);
  EXPECT_EQ(faulted.migrateCommits, 1u);
  EXPECT_EQ(faulted.migrations, 1u);
  EXPECT_EQ(faulted.migrateFallbacks, 0u);
  EXPECT_EQ(faulted.degradedJobs, 0u);
  EXPECT_GT(faulted.migrateCyclesSaved, 0u);
  EXPECT_EQ(faulted.migrateReqNotes, 1);
  EXPECT_EQ(faulted.migrateCommitNotes, 1);
  EXPECT_EQ(faulted.resumeNotes, 1);
  EXPECT_TRUE(faulted.node0Sick);
  EXPECT_EQ(faulted.attempts, 2) << "migration relaunches once";

  // The relaunch really restored (not a silent scratch start), and it
  // did so off the sick node: node 0 never applied an image.
  EXPECT_EQ(faulted.ckptResumes, 1u);
  std::uint64_t restores = 0;
  for (std::uint64_t r : faulted.restoresByNode) restores += r;
  EXPECT_EQ(restores, 2u) << "both ranks of the relaunch must restore";
  EXPECT_EQ(faulted.restoresByNode[0], 0u)
      << "healthy-preferred allocation must steer off the sick node";

  // The clean twin never touched the migration plane.
  EXPECT_EQ(clean.migrateRequests, 0u);
  EXPECT_EQ(clean.migrations, 0u);
  EXPECT_EQ(clean.ckptResumes, 0u);
  EXPECT_EQ(clean.attempts, 1);

  // Pinned outcomes: moving, dropping or reordering any note or counter
  // increment on the migrate window's commit path changes one of these.
  EXPECT_EQ(faulted.hash, 0xa76a6640951b392aULL);
  EXPECT_EQ(faulted.counters,
            (std::vector<std::uint64_t>{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
                                        1, 1, 0, 1, 0, 1'039'899}));
  EXPECT_EQ(clean.hash, 0x88a3a5a51a4fcb3eULL);
  EXPECT_EQ(clean.counters, std::vector<std::uint64_t>(19, 0));
}

// ---------------------------------------------------------------------
// Failed migrate windows: the job stays where it is
// ---------------------------------------------------------------------

TEST(MigrationSvc, BlownMigrateDeadlineLeavesJobRunningDegraded) {
  const MigRun r = runLinkDeathJob({.windowDeadline = 1});
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.migrateReqNotes, 1);
  EXPECT_EQ(r.migrateTimeoutNotes, 1);
  EXPECT_EQ(r.migrateFallbackNotes, 0);
  EXPECT_EQ(r.migrateRequests, 1u);
  EXPECT_EQ(r.migrateCommits, 0u);
  EXPECT_EQ(r.migrateFallbacks, 1u);
  EXPECT_EQ(r.degradedJobs, 1u);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.rasMigrateFallbacks, 1u);
  // Finished in place: no requeue, same final answer.
  EXPECT_EQ(r.state, svc::JobState::kCompleted);
  EXPECT_EQ(r.attempts, 1);
  ASSERT_EQ(r.samples.size(), 1u);
  EXPECT_EQ(r.samples[0], 600u * 5);
  EXPECT_EQ(r.hash, 0x766307c07bccb6d3ULL);
  EXPECT_EQ(r.counters,
            (std::vector<std::uint64_t>{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        1, 0, 1, 0, 1, 0}));
}

TEST(MigrationSvc, FailedMigrateCommitLeavesJobRunningDegraded) {
  // The window opens at the link death; the CIOD dies 60k cycles into
  // it, so the image write is lost and the watchdog fails it with EIO,
  // which fails the commit. The pset then fails over to the spare: the
  // restore for pid 0 goes first and the parked close runs after it.
  const MigRun r = runLinkDeathJob({.ciodCrashDelay = 60'000});
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.migrateReqNotes, 1);
  EXPECT_EQ(r.migrateFallbackNotes, 1);
  EXPECT_EQ(r.migrateTimeoutNotes, 0);
  EXPECT_EQ(r.migrateCommitNotes, 0);
  EXPECT_EQ(r.migrateFallbacks, 1u);
  EXPECT_EQ(r.degradedJobs, 1u);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.rasMigrateFallbacks, 1u);
  // A failed window never kills the job.
  EXPECT_EQ(r.state, svc::JobState::kCompleted);
  EXPECT_EQ(r.attempts, 1);
  ASSERT_EQ(r.samples.size(), 1u);
  EXPECT_EQ(r.samples[0], 600u * 5);
  EXPECT_EQ(r.hash, 0x1175db12a1650035ULL);
  EXPECT_EQ(r.counters,
            (std::vector<std::uint64_t>{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        1, 0, 1, 0, 1, 0}));
}

// ---------------------------------------------------------------------
// Degraded route-around mode (no healthy capacity)
// ---------------------------------------------------------------------

TEST(MigrationSvc, NoHealthyCapacityLeavesJobRunningDegraded) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 8;
  cfg.seed = 42;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.migrate.enabled = true;
  svc::ServiceHost host(cluster, snCfg);

  // The job owns the whole machine: once one of its nodes is
  // link-sick, only 7 healthy nodes can ever be assembled, so the
  // predictor must fall back to degraded mode instead of migrating.
  svc::JobDesc jd;
  jd.name = "wide";
  jd.nodes = 8;
  jd.exe = workImage("wide", 600, 10'000);
  jd.estCycles = 6'200'000;
  int arrived = 0;
  cluster.engine().scheduleAt(10'000, [&host, jd, &arrived]() mutable {
    host.submit(std::move(jd));
    ++arrived;
  });
  cluster.engine().scheduleAt(1'000'000, [&cluster, &host] {
    cluster.machine().torus().killLink(3, 1, false);
    if (host.alive()) host.node().poke();
  });

  host.start();
  ASSERT_TRUE(cluster.engine().runWhile(
      [&] { return arrived == 1 && host.drained(); }, 2'000'000'000));

  svc::ServiceNode& sn = host.node();
  EXPECT_EQ(sn.count(SvcCounter::kMigrateRequests), 0u);
  EXPECT_EQ(sn.count(SvcCounter::kMigrations), 0u);
  EXPECT_EQ(sn.count(SvcCounter::kDegradedJobs), 1u);
  EXPECT_TRUE(sn.linkSick(3));
  EXPECT_EQ(countNotes(sn, "degraded_mode"), 1);
  ASSERT_EQ(sn.jobs().size(), 1u);
  EXPECT_EQ(sn.jobs()[0].state, svc::JobState::kCompleted)
      << "degraded mode must never kill the job";
  EXPECT_EQ(sn.jobs()[0].attempts, 1) << "no requeue in degraded mode";
}

// ---------------------------------------------------------------------
// CRC-retry storm predictor thresholds
// ---------------------------------------------------------------------

struct StormRun {
  std::uint64_t migrateRequests = 0;
  std::uint64_t migrations = 0;
  std::size_t sickNodes = 0;
  bool completed = false;
};

StormRun runStormJob(std::uint32_t threshold, int burst) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 8;
  cfg.seed = 43;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.migrate.enabled = true;
  snCfg.ckptWindowDeadlineCycles = 2'000'000;
  snCfg.ras.linkSickThreshold = threshold;
  svc::ServiceHost host(cluster, snCfg);

  svc::JobDesc jd;
  jd.name = "storm";
  jd.nodes = 2;
  jd.exe = workImage("storm", 600, 10'000);
  jd.estCycles = 6'200'000;
  int arrived = 0;
  cluster.engine().scheduleAt(10'000, [&host, jd, &arrived]() mutable {
    host.submit(std::move(jd));
    ++arrived;
  });
  testing::FaultSchedule faults;
  faults.linkStorm(/*node=*/0, /*dim=*/0, /*positive=*/true,
                   /*at=*/1'000'000, burst);
  faults.arm(cluster, host);

  host.start();
  StormRun out;
  out.completed = cluster.engine().runWhile(
      [&] { return arrived == 1 && host.drained(); }, 2'000'000'000);
  svc::ServiceNode& sn = host.node();
  out.migrateRequests = sn.count(SvcCounter::kMigrateRequests);
  out.migrations = sn.count(SvcCounter::kMigrations);
  out.sickNodes = sn.linkSickCount();
  return out;
}

TEST(MigrationSvc, CrcStormCrossingThresholdTriggersMigrate) {
  const StormRun r = runStormJob(/*threshold=*/6, /*burst=*/8);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.migrateRequests, 1u);
  EXPECT_EQ(r.migrations, 1u);
  EXPECT_EQ(r.sickNodes, 1u);
}

TEST(MigrationSvc, CrcStormBelowThresholdIsIgnored) {
  const StormRun r = runStormJob(/*threshold=*/6, /*burst=*/4);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.migrateRequests, 0u);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.sickNodes, 0u) << "a sub-threshold storm is background noise";
}

// ---------------------------------------------------------------------
// Seeded replay determinism (and the composed all-plane stream)
// ---------------------------------------------------------------------

struct SweepOutcome {
  std::uint64_t hash = 0;
  std::vector<std::string> timeline;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t migrateRequests = 0;
  std::uint64_t migrations = 0;
  std::uint64_t degradedJobs = 0;
  std::uint64_t detours = 0;
  std::uint64_t crcRetries = 0;
  std::uint64_t sickNodes = 0;
  std::vector<std::uint64_t> counters;  // svcCounters (empty if down)
  bool drained = false;
};

/// Seeded jobstream on an 8-node (2x2x2) machine with migration armed.
/// `composed` layers every prior fault plane (node deaths, CE storms,
/// the ckpt torture trio, a control-plane crash aimed at a migrate
/// window) on top of the link faults.
SweepOutcome runMigrationSweep(std::uint64_t seed, int jobCount,
                               bool composed) {
  const int kNodes = 8;
  rt::ClusterConfig cfg;
  cfg.computeNodes = kNodes;
  cfg.seed = seed;
  // Tight fship reliability so CIOD deaths surface within the horizon.
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
  snCfg.migrate.enabled = true;
  snCfg.ras.linkSickThreshold = 6;
  svc::ServiceHost host(cluster, snCfg);

  sim::Rng rng(seed, "migration-sweep");
  const sim::Cycle arrivalSpan = static_cast<sim::Cycle>(jobCount) * 60'000;
  struct Arrival {
    sim::Cycle at;
    svc::JobDesc jd;
  };
  std::vector<Arrival> arrivals;
  for (int i = 0; i < jobCount; ++i) {
    svc::JobDesc jd;
    jd.name = "m" + std::to_string(i);
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(2));
    jd.account = static_cast<svc::AccountId>(1 + rng.nextBelow(2));
    const std::uint64_t reps = 20 + rng.nextBelow(200);
    if (rng.nextBelow(2) == 0) {
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

  const sim::Cycle horizon = arrivalSpan + 3'000'000;
  const testing::FaultSchedule faults =
      composed
          ? testing::FaultSchedule::random(
                seed, kNodes, horizon, /*crashes=*/0, /*deaths=*/1,
                /*storms=*/0, /*ioDeaths=*/0, /*ioNodes=*/1, /*memUes=*/0,
                /*ceStorms=*/1, /*coreHangs=*/0, /*ckptIoCrashes=*/1,
                /*ckptUes=*/1, /*ckptSvcCrashes=*/0, /*linkDeaths=*/2,
                /*linkStorms=*/2, /*migrateSvcCrashes=*/1)
          : testing::FaultSchedule::random(
                seed, kNodes, horizon, /*crashes=*/0, /*deaths=*/0,
                /*storms=*/0, /*ioDeaths=*/0, /*ioNodes=*/1, /*memUes=*/0,
                /*ceStorms=*/0, /*coreHangs=*/0, /*ckptIoCrashes=*/0,
                /*ckptUes=*/0, /*ckptSvcCrashes=*/0, /*linkDeaths=*/2,
                /*linkStorms=*/1, /*migrateSvcCrashes=*/0);
  faults.arm(cluster, host);

  host.start();
  SweepOutcome out;
  out.drained = cluster.engine().runWhile(
      [&] { return arrived == jobCount && host.drained(); }, 3'000'000'000);
  const svc::SvcMetrics m = host.metrics();
  out.hash = m.scheduleHash;
  out.completed = m.jobsCompleted;
  out.failed = m.jobsFailed;
  out.migrateRequests = m.count(SvcCounter::kMigrateRequests);
  out.migrations = m.count(SvcCounter::kMigrations);
  out.degradedJobs = m.count(SvcCounter::kDegradedJobs);
  out.detours = m.linkDetours;
  out.crcRetries = m.linkCrcRetries;
  out.sickNodes = m.linkSickNodes;
  if (host.alive()) {
    out.timeline = host.node().timeline();
    out.counters = svcCounters(host.node());
  }

  EXPECT_TRUE(out.drained) << "stream wedged (seed " << seed << ")";
  EXPECT_EQ(out.completed + out.failed,
            static_cast<std::uint64_t>(jobCount))
      << "lost a job (seed " << seed << ")";
  return out;
}

void expectIdentical(const SweepOutcome& a, const SweepOutcome& b,
                     std::uint64_t seed) {
  EXPECT_EQ(a.hash, b.hash) << "seed " << seed;
  EXPECT_EQ(a.timeline, b.timeline) << "seed " << seed;
  EXPECT_EQ(a.migrateRequests, b.migrateRequests) << "seed " << seed;
  EXPECT_EQ(a.migrations, b.migrations) << "seed " << seed;
  EXPECT_EQ(a.degradedJobs, b.degradedJobs) << "seed " << seed;
  EXPECT_EQ(a.detours, b.detours) << "seed " << seed;
  EXPECT_EQ(a.crcRetries, b.crcRetries) << "seed " << seed;
}

TEST(MigrationSvc, SeededLinkFaultStreamReplaysBitIdentically) {
  const std::uint64_t seed = 1201;
  const SweepOutcome a = runMigrationSweep(seed, 24, /*composed=*/false);
  const SweepOutcome b = runMigrationSweep(seed, 24, /*composed=*/false);
  expectIdentical(a, b, seed);
  // Non-vacuity: the predictor really flagged nodes on this seed.
  EXPECT_GE(a.sickNodes, 1u);
}

TEST(MigrationSvc, ComposedAllPlaneStreamReplaysBitIdentically) {
  const std::uint64_t seed = 1301;
  const SweepOutcome a = runMigrationSweep(seed, 24, /*composed=*/true);
  const SweepOutcome b = runMigrationSweep(seed, 24, /*composed=*/true);
  expectIdentical(a, b, seed);
  EXPECT_EQ(a.counters, b.counters);
  // Pinned outcome: node deaths, an I/O death, a control-plane crash
  // and two checkpoint-then-preempt windows in one stream.
  EXPECT_EQ(a.hash, 0x087c1a890c121873ULL);
  EXPECT_EQ(a.counters,
            (std::vector<std::uint64_t>{4, 1, 0, 0, 1, 0, 36'766, 1, 1, 2, 1, 0,
                                        2, 0, 0, 0, 0, 0, 0}));
}

// ---------------------------------------------------------------------
// Multi-seed composed sweep (slow lane)
// ---------------------------------------------------------------------

TEST(MigrationSlow, MultiSeedComposedSweepReplaysBitIdentically) {
  if (std::getenv("MIGRATION_SLOW") == nullptr) {
    GTEST_SKIP() << "set MIGRATION_SLOW=1 (slow ctest lane) to run";
  }
  for (std::uint64_t seed = 1400; seed < 1408; ++seed) {
    const SweepOutcome a = runMigrationSweep(seed, 24, /*composed=*/true);
    const SweepOutcome b = runMigrationSweep(seed, 24, /*composed=*/true);
    expectIdentical(a, b, seed);
  }
}

}  // namespace
}  // namespace bg
