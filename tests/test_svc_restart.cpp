// Crash-safe control plane: checkpoint/restart of the service node
// through a PersistRegistry-backed store, predictive drain on warn
// storms, and the determinism witness across injected control-plane
// crashes — the restarted scheduler must continue the *same* schedule
// (hash-identical to an uninterrupted run) when the outage covers no
// decision, and must replay identically from the same seed always.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault_schedule.hpp"
#include "runtime/app.hpp"
#include "sim/rng.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace bg {
namespace {

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

struct RunResult {
  std::uint64_t hash = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t predictiveDrains = 0;
  std::uint64_t rasFatal = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t coldStarts = 0;
  std::uint64_t checkpointSaves = 0;
  bool drained = false;
  std::vector<std::string> timeline;
};

/// The seeded stream runStream() submits: `jobs` one- or two-node CNK
/// jobs of 100K-190K cycles (times `repScale`).
void submitJobs(svc::ServiceHost& host, std::uint64_t seed, int jobs,
                std::uint64_t repScale) {
  sim::Rng rng(seed, "svc-restart-test");
  for (int i = 0; i < jobs; ++i) {
    svc::JobDesc jd;
    jd.name = "job" + std::to_string(i);
    jd.kernel = rt::KernelKind::kCnk;
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(2));
    const std::uint64_t reps = (10 + rng.nextBelow(10)) * repScale;
    jd.exe = workImage(jd.name, reps, 10'000);
    jd.estCycles = reps * 10'000 + 50'000;
    host.submit(jd);
  }
}

RunResult runStream(std::uint64_t seed, int jobs,
                    const testing::FaultSchedule& faults,
                    svc::ServiceNodeConfig snCfg = {},
                    std::uint64_t repScale = 1) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.seed = seed;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster, snCfg);
  submitJobs(host, seed, jobs, repScale);
  faults.arm(cluster, host);

  RunResult out;
  out.drained = host.runUntilDrained(100'000'000);
  svc::SvcMetrics m = host.metrics();
  out.hash = m.scheduleHash;
  out.completed = m.jobsCompleted;
  out.failed = m.jobsFailed;
  out.retries = m.jobRetries;
  out.predictiveDrains = m.predictiveDrains;
  out.rasFatal = m.rasFatal;
  out.crashes = m.serviceCrashes;
  out.restarts = m.serviceRestarts;
  out.coldStarts = host.coldStarts();
  out.checkpointSaves = m.checkpointSaves;
  if (host.alive()) out.timeline = host.node().timeline();
  return out;
}

/// Cycle of each hash-mixed decision, parsed from the timeline lines
/// ("[       12345] launch ...").
std::vector<sim::Cycle> decisionCycles(const RunResult& r) {
  std::vector<sim::Cycle> cycles;
  for (const std::string& line : r.timeline) {
    cycles.push_back(std::strtoull(line.c_str() + 1, nullptr, 10));
  }
  return cycles;
}

struct Gap {
  sim::Cycle start = 0, len = 0;
};

/// The two widest decision-free windows of a run, widest first.
std::pair<Gap, Gap> widestGaps(const RunResult& r) {
  const std::vector<sim::Cycle> cycles = decisionCycles(r);
  Gap g1, g2;
  for (std::size_t i = 1; i < cycles.size(); ++i) {
    const Gap g{cycles[i - 1], cycles[i] - cycles[i - 1]};
    if (g.len > g1.len) {
      g2 = g1;
      g1 = g;
    } else if (g.len > g2.len) {
      g2 = g;
    }
  }
  return {g1, g2};
}

// --- Tentpole witness: restart is schedule-invisible --------------------

TEST(SvcRestart, TwoCrashesHashEqualToUninterruptedRun) {
  const std::uint64_t seed = 42;
  const int jobs = 10;
  // 10x-long jobs open wide decision-free windows to crash inside.
  const RunResult base = runStream(seed, jobs, {}, {}, 10);
  ASSERT_TRUE(base.drained);
  ASSERT_EQ(base.completed, static_cast<std::uint64_t>(jobs));
  ASSERT_GE(base.checkpointSaves, 1u);

  // Pick the two widest decision-free windows and crash inside them:
  // with no decision in the outage, a write-through checkpoint restart
  // must continue the identical schedule.
  ASSERT_GE(decisionCycles(base).size(), 2u);
  const auto [g1, g2] = widestGaps(base);
  const sim::Cycle interval = svc::ServiceNodeConfig{}.pollIntervalCycles;
  ASSERT_GT(g1.len, 6 * interval) << "stream has no quiet window";
  ASSERT_GT(g2.len, 6 * interval) << "stream has no second quiet window";

  testing::FaultSchedule fs;
  for (const Gap& g : {g1, g2}) {
    // Crash one interval into the gap; restart with two intervals of
    // margin before the next decision.
    fs.svcCrash(g.start + interval + 1, g.len - 4 * interval);
  }
  const RunResult crashed = runStream(seed, jobs, fs, {}, 10);
  EXPECT_TRUE(crashed.drained);
  EXPECT_EQ(crashed.crashes, 2u);
  EXPECT_EQ(crashed.restarts, 2u);
  EXPECT_EQ(crashed.coldStarts, 0u) << "restart fell back to cold start";
  EXPECT_EQ(crashed.completed, static_cast<std::uint64_t>(jobs));
  EXPECT_EQ(crashed.hash, base.hash)
      << "restart from checkpoint changed the schedule";
}

TEST(SvcRestart, SameSeedSameCrashScheduleReplaysIdentically) {
  // Crash cycles chosen without regard to quiet windows: replay
  // determinism must hold even when the restart *does* perturb the
  // schedule (e.g. a decision lands inside the outage).
  const auto mkFaults = [] {
    testing::FaultSchedule fs;
    fs.svcCrash(250'000, 120'000);
    fs.svcCrash(700'000, 300'000);
    return fs;
  };
  const RunResult a = runStream(9, 8, mkFaults());
  const RunResult b = runStream(9, 8, mkFaults());
  ASSERT_TRUE(a.drained);
  ASSERT_TRUE(b.drained);
  EXPECT_EQ(a.crashes, 2u);
  EXPECT_EQ(a.completed + a.failed, 8u);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.timeline, b.timeline);
}

TEST(SvcRestart, SubmissionsDuringOutageAreBufferedAndDelivered) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster);

  svc::JobDesc early;
  early.name = "early";
  early.kernel = rt::KernelKind::kCnk;
  early.nodes = 1;
  early.exe = workImage(early.name, 50, 10'000);
  early.estCycles = 600'000;
  host.submit(early);

  host.scheduleCrashRestart(100'000, 200'000);
  // Client retries during the outage: the host buffers the submission
  // and delivers it (in order) to the restarted service node.
  cluster.engine().scheduleAt(150'000, [&] {
    EXPECT_FALSE(host.alive());
    svc::JobDesc late;
    late.name = "late";
    late.kernel = rt::KernelKind::kCnk;
    late.nodes = 1;
    late.exe = workImage(late.name, 10, 10'000);
    late.estCycles = 200'000;
    EXPECT_EQ(host.submit(late), 0u);  // id assigned after restart
  });

  ASSERT_TRUE(host.runUntilDrained(50'000'000));
  EXPECT_EQ(host.restarts(), 1u);
  EXPECT_EQ(host.coldStarts(), 0u);
  const auto& jobs = host.node().jobs();
  ASSERT_EQ(jobs.size(), 2u);
  for (const auto& jr : jobs) {
    EXPECT_EQ(jr.state, svc::JobState::kCompleted) << jr.desc.name;
  }
  EXPECT_EQ(jobs[1].desc.name, "late");
}

TEST(SvcRestart, CoarseCheckpointCadenceStillFinishesEveryJob) {
  // Checkpoint only every 4th pump: a crash can now lose decisions
  // made since the last save. Restart reconciliation must verify the
  // stale running-job leases against the kernels and requeue what no
  // longer checks out — no job may be lost or duplicated.
  svc::ServiceNodeConfig snCfg;
  snCfg.checkpointEveryPumps = 4;
  testing::FaultSchedule fs;
  fs.svcCrash(300'000, 150'000);
  fs.svcCrash(900'000, 150'000);
  const RunResult out = runStream(17, 8, fs, snCfg);
  ASSERT_TRUE(out.drained);
  EXPECT_EQ(out.crashes, 2u);
  EXPECT_EQ(out.coldStarts, 0u);
  EXPECT_EQ(out.completed + out.failed, 8u);
  // Determinism still holds under the coarse cadence.
  const RunResult again = runStream(17, 8, fs, snCfg);
  EXPECT_EQ(again.hash, out.hash);
}

TEST(SvcRestart, NodeDeathDuringOutageIsHandledAfterRestart) {
  // A node dies while the control plane is down. The fatal RAS event
  // sits in the kernel ring until the restarted instance's persisted
  // seq cursor sweeps it up — exactly once.
  testing::FaultSchedule fs;
  fs.svcCrash(200'000, 300'000);
  fs.nodeDeath(1, 350'000);  // inside the outage
  const RunResult out = runStream(23, 8, fs);
  ASSERT_TRUE(out.drained);
  EXPECT_EQ(out.crashes, 1u);
  EXPECT_EQ(out.coldStarts, 0u);
  EXPECT_EQ(out.rasFatal, 1u);
  EXPECT_EQ(out.completed + out.failed, 8u);
  const RunResult again = runStream(23, 8, fs);
  EXPECT_EQ(again.hash, out.hash);
}

// --- Predictive drain ---------------------------------------------------

TEST(SvcRestart, WarnStormDrainsNodePredictivelyBeforeFatal) {
  svc::ServiceNodeConfig snCfg;
  snCfg.ras.warnDrainThreshold = 5;
  snCfg.ras.warnWindowCycles = 2'000'000;
  testing::FaultSchedule fs;
  fs.warnStorm(0, 300'000, 8);  // 8 kWarn machine-checks in one burst
  const RunResult out = runStream(31, 8, fs, snCfg);
  ASSERT_TRUE(out.drained);
  EXPECT_GE(out.predictiveDrains, 1u);
  EXPECT_EQ(out.rasFatal, 0u) << "node went fatal before the drain";
  EXPECT_EQ(out.completed, 8u);  // drained node's job retried fine
  EXPECT_GE(out.retries, 1u);
}

TEST(SvcRestart, WarnStormBelowThresholdDoesNothing) {
  svc::ServiceNodeConfig snCfg;
  snCfg.ras.warnDrainThreshold = 5;
  testing::FaultSchedule fs;
  fs.warnStorm(0, 300'000, 4);  // under the threshold
  const RunResult out = runStream(31, 8, fs, snCfg);
  ASSERT_TRUE(out.drained);
  EXPECT_EQ(out.predictiveDrains, 0u);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_EQ(out.completed, 8u);
}

TEST(SvcRestart, WarnWindowForgetsOldWarns) {
  // Same total warns, but spread wider than the sliding window: the
  // per-node rate never crosses the threshold, so no drain.
  svc::ServiceNodeConfig snCfg;
  snCfg.ras.warnDrainThreshold = 5;
  snCfg.ras.warnWindowCycles = 100'000;
  testing::FaultSchedule fs;
  for (int i = 0; i < 8; ++i) {
    fs.warnStorm(0, 200'000 + static_cast<sim::Cycle>(i) * 150'000, 1);
  }
  const RunResult out = runStream(31, 8, fs, snCfg);
  ASSERT_TRUE(out.drained);
  EXPECT_EQ(out.predictiveDrains, 0u);
}

// --- Checkpoint store robustness ----------------------------------------

TEST(SvcRestart, CorruptedCheckpointFallsBackToColdStart) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster);

  svc::JobDesc jd;
  jd.name = "one";
  jd.kernel = rt::KernelKind::kCnk;
  jd.nodes = 1;
  jd.exe = workImage(jd.name, 10, 10'000);
  host.submit(jd);
  ASSERT_TRUE(host.runUntilDrained(50'000'000));
  ASSERT_TRUE(host.store().hasCheckpoint());

  // Flip bits in the persisted payload: the checksum must reject it.
  const cnk::PersistRegion* r =
      host.store().registry().find("svc.jobqueue");
  ASSERT_NE(r, nullptr);
  host.store().mem().write64(r->pbase + 32,
                             ~host.store().mem().read64(r->pbase + 32));
  host.crash();
  EXPECT_FALSE(host.restart()) << "corrupted checkpoint restored warm";
  EXPECT_EQ(host.coldStarts(), 1u);
  EXPECT_TRUE(host.alive());
}

TEST(SvcRestart, CheckpointSurvivesRegionReopenAtStableAddress) {
  // Every save reopens the region by name; the address must never
  // move (CNK persistent-memory contract) and the saved image must
  // round-trip bit-exactly.
  svc::CheckpointStore store;
  const cnk::PersistRegion* r0 = store.registry().find("svc.jobqueue");
  ASSERT_NE(r0, nullptr);
  const auto base = r0->vbase;
  std::vector<std::byte> img(1024);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::byte>(i * 7);
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.save(img, 100 + i));
    const cnk::PersistRegion* r = store.registry().find("svc.jobqueue");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->vbase, base);
  }
  const auto back = store.load();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, img);
  EXPECT_EQ(store.saves(), 5u);
}

TEST(SvcRestart, OversizedImageIsRejectedNotTorn) {
  svc::CheckpointStore::Config cfg;
  cfg.poolBytes = 4ULL << 20;
  cfg.regionBytes = 1ULL << 20;
  svc::CheckpointStore store(cfg);
  std::vector<std::byte> small(64, std::byte{0x5A});
  ASSERT_TRUE(store.save(small, 1));
  std::vector<std::byte> huge((1ULL << 20) + 1);
  EXPECT_FALSE(store.save(huge, 2));
  // The previous checkpoint is still intact.
  const auto back = store.load();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, small);
}


// --- Snapshot + journal -------------------------------------------------

/// Drive `host` until it drains, calling `onSave` after every event in
/// which the store took a save.
bool runObservingSaves(rt::Cluster& cluster, svc::ServiceHost& host,
                       const std::function<void()>& onSave) {
  host.start();
  std::uint64_t seen = host.store().saves();
  return cluster.engine().runWhile(
      [&] {
        if (host.store().saves() != seen) {
          seen = host.store().saves();
          onSave();
        }
        return host.drained();
      },
      400'000'000);
}

TEST(SvcJournal, ReplayEqualsFullEncodeAtEverySave) {
  // Crashes, a node death and QOS preemptions: at every save the store's
  // snapshot + journal must replay to exactly the bytes a full encode
  // of the live state gives.
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.seed = 5;
  rt::Cluster cluster(cfg);
  svc::ServiceNodeConfig snCfg;
  snCfg.policy = svc::SchedPolicyKind::kFairShare;
  svc::AccountSpec batch;
  batch.name = "batch";
  batch.qos = svc::Qos::kLow;
  svc::AccountSpec urgent;
  urgent.name = "urgent";
  urgent.qos = svc::Qos::kHigh;
  urgent.preemptable = false;
  snCfg.fairshare.accounts = {batch, urgent};
  svc::ServiceHost host(cluster, snCfg);

  sim::Rng rng(5, "svc-journal-test");
  for (int i = 0; i < 24; ++i) {
    svc::JobDesc jd;
    jd.name = "j" + std::to_string(i);
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(2));
    jd.account = i % 3 == 2 ? 2 : 1;  // every third job is urgent
    const std::uint64_t reps = 20 + rng.nextBelow(20);
    jd.exe = workImage(jd.name, reps, 10'000);
    jd.estCycles = reps * 10'000 + 50'000;
    jd.maxRetries = 3;
    const sim::Cycle at = static_cast<sim::Cycle>(i) * 120'000;
    cluster.engine().scheduleAt(at, [&host, jd] { host.submit(jd); });
  }
  testing::FaultSchedule fs;
  fs.svcCrash(700'000, 150'000).nodeDeath(1, 1'300'000);
  fs.svcCrash(2'100'000, 90'000);
  fs.arm(cluster, host);

  std::uint64_t checks = 0;
  ASSERT_TRUE(runObservingSaves(cluster, host, [&] {
    ASSERT_TRUE(host.alive());
    const std::optional<std::vector<std::byte>> replayed =
        host.store().load();
    ASSERT_TRUE(replayed.has_value());
    ASSERT_EQ(*replayed, host.node().encodeImage())
        << "save " << host.store().saves();
    ++checks;
  }));
  const svc::SvcMetrics m = host.metrics();
  EXPECT_EQ(m.jobsCompleted, 24u);
  EXPECT_EQ(host.crashes(), 2u);
  EXPECT_EQ(host.coldStarts(), 0u);
  EXPECT_GE(m.nodeFailures, 1u);
  EXPECT_GE(m.preemptions, 1u);
  EXPECT_EQ(m.checkpointFailedSaves, 0u);
  // An event can save more than once (a restart saves once per
  // buffered submission it flushes); it is checked after its last save.
  EXPECT_LE(checks, host.store().saves());
  EXPECT_GT(checks, host.store().saves() / 2);
  // Most saves were journal appends, and the journal was compacted.
  EXPECT_GE(host.store().generation(), 3u);
  EXPECT_GT(host.store().saves(), 3 * host.store().generation());
}

TEST(SvcJournal, CorruptedLastRecordRestartsWarmFromTheRecordBefore) {
  // TwoCrashesHashEqualToUninterruptedRun's stream, crashed in its
  // widest quiet window with the newest journal record torn: restart
  // is warm from the record before it and the schedule is unchanged.
  const RunResult base = runStream(42, 10, {}, {}, 10);
  ASSERT_TRUE(base.drained);
  const Gap g = widestGaps(base).first;
  const sim::Cycle interval = svc::ServiceNodeConfig{}.pollIntervalCycles;
  ASSERT_GT(g.len, 6 * interval);

  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.seed = 42;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster);
  submitJobs(host, 42, 10, 10);
  svc::CheckpointStore& store = host.store();
  std::optional<std::vector<std::byte>> previous;
  std::optional<std::vector<std::byte>> newest;
  bool torn = false;
  sim::Engine& eng = cluster.engine();
  eng.scheduleAt(g.start + interval + 1, [&] {
    host.crash();
    ASSERT_GE(store.journalRecords(), 1u) << "newest save is a snapshot";
    const cnk::PersistRegion* r = store.registry().find("svc.jobqueue");
    ASSERT_NE(r, nullptr);
    // Flip the newest record's last payload byte: its seal fails.
    const hw::PAddr last = r->pbase + store.journalTail() - 1;
    std::vector<std::byte> b(1);
    store.mem().read(last, b);
    b[0] = ~b[0];
    store.mem().write(last, b);
    EXPECT_EQ(store.load(), previous) << "did not fall back one record";
    EXPECT_NE(store.load(), newest);
    torn = true;
    eng.schedule(g.len - 4 * interval, [&] { EXPECT_TRUE(host.restart()); });
  });
  ASSERT_TRUE(runObservingSaves(cluster, host, [&] {
    previous = std::move(newest);
    newest = store.load();
  }));
  EXPECT_TRUE(torn);
  EXPECT_EQ(host.coldStarts(), 0u);
  const svc::SvcMetrics m = host.metrics();
  EXPECT_EQ(m.jobsCompleted, 10u);
  EXPECT_EQ(m.scheduleHash, base.hash)
      << "restart from the record before the torn one changed the schedule";
}

/// A minimal well-formed image: one head byte, the given timeline
/// lines, every other section empty.
std::vector<std::byte> tinyImage(std::uint8_t head,
                                 const std::vector<std::string>& lines) {
  svc::ImageWriter img;
  sim::ByteWriter& w = img.out();
  w.u8(head);  // kHead
  img.close();
  w.u64(0);  // kJobs
  img.close();
  w.u64(0);  // kQueue
  img.close();
  img.close();  // kTables
  w.u64(lines.size());
  for (const std::string& l : lines) w.str(l);
  img.close();  // kTimeline
  img.close();  // kRasState
  w.u64(0);
  img.close();  // kRasStream
  img.close();  // kAccounting
  return std::move(img).take();
}

/// A journal record that replaces the head byte and appends one line.
std::vector<std::byte> tinyRecord(std::uint8_t head, const std::string& line) {
  sim::ByteWriter w;
  svc::writeFramed(w, [&] { w.u8(head); });
  w.u32(0);  // job entries
  w.u32(0);  // queue removals
  w.u32(0);  // queue appends
  svc::writeFramed(w, [] {});
  w.u32(1);
  w.str(line);
  svc::writeFramed(w, [] {});
  w.u32(0);  // RAS events dropped
  w.u32(0);  // RAS events appended
  svc::writeFramed(w, [] {});
  return std::move(w).take();
}

TEST(SvcJournal, StaleRecordsPastANewGenerationsTailAreIgnored) {
  svc::CheckpointStore store;
  ASSERT_TRUE(store.save(tinyImage(1, {}), 1));
  std::uint64_t tailAfterTwo = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.append(tinyRecord(1, "old" + std::to_string(i)), 2));
    if (i == 1) tailAfterTwo = store.journalTail();
  }
  EXPECT_EQ(store.load(), tinyImage(1, {"old0", "old1", "old2", "old3"}));

  // Compaction: a same-size snapshot starts generation 2, and two
  // same-size records end exactly where generation 1's third record
  // (sealed, sequence 3, the next one expected) begins.
  ASSERT_TRUE(store.save(tinyImage(2, {}), 3));
  ASSERT_TRUE(store.append(tinyRecord(2, "new0"), 4));
  ASSERT_TRUE(store.append(tinyRecord(2, "new1"), 5));
  EXPECT_EQ(store.generation(), 2u);
  ASSERT_EQ(store.journalTail(), tailAfterTwo);
  EXPECT_EQ(store.load(), tinyImage(2, {"new0", "new1"}));
}

TEST(SvcJournal, CorruptedSnapshotUnderAJournalColdStarts) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster);
  submitJobs(host, 3, 4, 1);
  ASSERT_TRUE(host.runUntilDrained(50'000'000));
  svc::CheckpointStore& store = host.store();
  // One more save after a snapshot is always a journal append.
  if (store.journalRecords() == 0) {
    ASSERT_TRUE(host.node().checkpointNow());
  }
  ASSERT_GE(store.journalRecords(), 1u);
  ASSERT_TRUE(store.load().has_value());

  // Flip one byte in the middle of the snapshot's image.
  const cnk::PersistRegion* r = store.registry().find("svc.jobqueue");
  ASSERT_NE(r, nullptr);
  const std::uint64_t len = store.mem().read64(r->pbase + 8);
  const hw::PAddr mid = r->pbase + cnk::kSealedHeaderBytes + len / 2;
  store.mem().write64(mid, ~store.mem().read64(mid));
  EXPECT_FALSE(store.load().has_value());
  host.crash();
  EXPECT_FALSE(host.restart()) << "a torn snapshot restored warm";
  EXPECT_EQ(host.coldStarts(), 1u);
}

TEST(SvcJournal, OverflowingTheRegionCountsFailedSavesAndRestoresTheLastGood) {
  // Job names of 16 KB make every entry large: a 1 MB region overflows
  // after some 60 submissions, and every save after that fails.
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  svc::CheckpointStore::Config storeCfg;
  storeCfg.poolBytes = 4ULL << 20;
  storeCfg.regionBytes = 1ULL << 20;
  svc::ServiceHost host(cluster, {}, storeCfg);
  const std::string pad(16 << 10, 'x');
  std::uint64_t lastGoodJobs = 0;
  for (int i = 0; i < 80; ++i) {
    svc::JobDesc jd;
    jd.name = pad + std::to_string(i);
    jd.exe = workImage("overflow", 1, 1'000);
    host.submit(jd);
    if (host.store().failedSaves() == 0) lastGoodJobs = i + 1;
  }
  const svc::CheckpointStore& store = host.store();
  EXPECT_GT(store.failedSaves(), 0u);
  EXPECT_EQ(host.metrics().checkpointFailedSaves, store.failedSaves());
  ASSERT_GT(lastGoodJobs, 0u);
  ASSERT_LT(lastGoodJobs, 80u);

  host.crash();
  EXPECT_TRUE(host.restart()) << "the last good checkpoint did not restore";
  EXPECT_EQ(host.coldStarts(), 0u);
  EXPECT_EQ(host.node().jobs().size(), lastGoodJobs);
}

}  // namespace
}  // namespace bg
