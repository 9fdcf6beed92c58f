// Compute-node fault plane, end to end (paper §III, §V):
//
//   hardware  — seeded ECC/parity injection (hw::MemFaultModel) with
//               the zero-RNG-when-clean contract the link-fault model
//               established, and scheduled core hangs (Core::hang());
//   kernel    — machine-check handlers that scrub correctables (kWarn
//               RAS), and on an uncorrectable error panic cleanly:
//               fatal RAS, lightweight coredump function-shipped to
//               the I/O node, fail-stop;
//   control   — heartbeat watchdog for hung cores, requeue through the
//               bounded-retry path, reboot-in-place, per-node failure
//               budgets that retire repeat offenders, and restart
//               reconciliation when the control plane crashes between
//               a node death and the requeue.
//
// Every scenario is seeded and replayed: same seed => identical
// schedule hash, identical aggregated RAS stream, byte-identical
// coredumps.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cnk/cnk_kernel.hpp"
#include "cnk/coredump.hpp"
#include "fault_schedule.hpp"
#include "io/ramfs.hpp"
#include "runtime/app.hpp"
#include "sim/bytes.hpp"
#include "sim/rng.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace bg {
namespace {

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 10)
                                    : fallback;
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

/// Heap-sweeping workload: each rep streams `bytes` of fresh heap at
/// cache-line stride, so every line is a cold miss that reaches DDR —
/// the access class the rate-driven ECC judgement hooks.
std::shared_ptr<kernel::ElfImage> memImage(const std::string& name,
                                           std::uint64_t reps,
                                           std::uint32_t bytesPerRep) {
  vm::ProgramBuilder b(name);
  b.mov(20, 10);  // cursor = heap base (reg 10 at entry)
  const auto top = b.loopBegin(16, static_cast<std::int64_t>(reps));
  b.memTouch(20, 0, bytesPerRep, 64);
  b.addi(20, 20, bytesPerRep);
  b.loopEnd(16, top);
  b.halt(0);
  return kernel::ElfImage::makeExecutable(name, std::move(b).build());
}

std::string rasLine(const svc::SvcRasEvent& e) {
  return std::to_string(e.event.cycle) + " n" + std::to_string(e.node) +
         " " + kernel::rasCodeName(e.event.code) + " s" +
         std::to_string(static_cast<int>(e.event.severity)) + " p" +
         std::to_string(e.event.pid) + " d" +
         std::to_string(e.event.detail);
}

// --- shared job-stream harness ------------------------------------------

struct FaultStreamParams {
  std::uint64_t seed = 1;
  int nodes = 6;
  int jobs = 40;
  // Compute-fault counts for the seeded schedule.
  int memUes = 0;
  int ceStorms = 0;
  int coreHangs = 0;
  // Legacy fault planes, for the composed scenario.
  int svcCrashes = 0;
  int nodeDeaths = 0;
  int warnStorms = 0;
  int ioDeaths = 0;
  sim::Cycle hangTimeout = 300'000;
  std::uint32_t failureBudget = 0;
  int maxJobWidth = 3;
};

struct FaultStreamOutcome {
  bool drained = false;
  std::uint64_t hash = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t hangsDetected = 0;
  std::uint64_t nodesRetired = 0;
  std::uint64_t requeueSamples = 0;
  double meanRequeue = 0;
  std::uint64_t coredumpsShipped = 0;
  std::uint64_t eccScrubbed = 0;
  std::uint64_t fatals = 0;
  std::uint64_t ueFatals = 0;
  std::uint64_t hangFatals = 0;
  std::uint64_t coredumpRas = 0;
  std::vector<std::string> rasLog;
  std::vector<svc::NodeLifecycle> finalStates;
  std::map<int, std::vector<std::byte>> coredumps;  // node -> bytes
};

/// Run a seeded job stream under a seeded fault schedule and check the
/// structural invariants every stream must keep: no job lost or
/// duplicated, every job terminal, every injected UE accounted for —
/// no silent wedges.
FaultStreamOutcome runFaultStream(const FaultStreamParams& p) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = p.nodes;
  cfg.seed = p.seed;
  // Tight fship watchdogs (as in the svc torture) so composed
  // schedules that kill a CIOD get an honest detection.
  cfg.cnk.fship.requestTimeout = 100'000;
  cfg.cnk.fship.maxTimeout = 400'000;
  cfg.cnk.fship.maxRetries = 2;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.hangTimeoutCycles = p.hangTimeout;
  snCfg.nodeFailureBudget = p.failureBudget;
  snCfg.ras.warnDrainThreshold = 8;
  svc::ServiceHost host(cluster, snCfg);

  sim::Rng rng(p.seed, "compute-fault-stream");
  const sim::Cycle arrivalSpan = static_cast<sim::Cycle>(p.jobs) * 60'000;
  struct Arrival {
    sim::Cycle at;
    svc::JobDesc jd;
  };
  std::vector<Arrival> arrivals;
  for (int i = 0; i < p.jobs; ++i) {
    svc::JobDesc jd;
    jd.name = "cf" + std::to_string(i);
    jd.kernel = rt::KernelKind::kCnk;
    jd.nodes =
        1 + static_cast<int>(rng.nextBelow(
                static_cast<std::uint64_t>(p.maxJobWidth)));
    const std::uint64_t reps = 6 + rng.nextBelow(20);
    jd.exe = workImage(jd.name, reps, 10'000);
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
      p.seed, p.nodes, arrivalSpan + 2'000'000, p.svcCrashes, p.nodeDeaths,
      p.warnStorms, p.ioDeaths, /*ioNodes=*/1, p.memUes, p.ceStorms,
      p.coreHangs);
  faults.arm(cluster, host);

  host.start();
  FaultStreamOutcome out;
  out.drained = cluster.engine().runWhile(
      [&] { return arrived == p.jobs && host.drained(); }, 2'000'000'000);

  svc::SvcMetrics m = host.metrics();
  out.hash = m.scheduleHash;
  out.completed = m.jobsCompleted;
  out.failed = m.jobsFailed;
  out.hangsDetected = m.hangsDetected;
  out.nodesRetired = m.count(svc::SvcCounter::kNodesRetired);
  out.requeueSamples = m.count(svc::SvcCounter::kRequeueCount);
  out.meanRequeue = m.meanRequeueCycles();
  out.fatals = m.rasFatal;
  svc::RasAggregator& ras = host.node().ras();
  out.ueFatals =
      ras.countByCode(kernel::RasEvent::Code::kEccUncorrectable);
  out.hangFatals = ras.countByCode(kernel::RasEvent::Code::kCoreHang);
  out.coredumpRas = ras.countByCode(kernel::RasEvent::Code::kCoredump);
  for (const svc::SvcRasEvent& e : ras.stream()) {
    out.rasLog.push_back(rasLine(e));
  }
  for (int n = 0; n < p.nodes; ++n) {
    out.finalStates.push_back(host.node().partitions().state(n));
    if (const cnk::CnkKernel* k = cluster.cnkOn(n)) {
      out.coredumpsShipped += k->coredumpsShipped();
      out.eccScrubbed += k->eccScrubbed();
    }
    const int ioIdx = cluster.machine().ioNodeIndexFor(n);
    auto bytes = cluster.ioRootFs(ioIdx).fileContents(cnk::coredumpPath(n));
    if (!bytes.empty()) out.coredumps[n] = std::move(bytes);
  }

  // Structural invariants on every stream.
  EXPECT_TRUE(out.drained) << "stream wedged (seed " << p.seed << ")";
  EXPECT_EQ(host.coldStarts(), 0u);
  const auto& jobs = host.node().jobs();
  EXPECT_EQ(jobs.size(), static_cast<std::size_t>(p.jobs))
      << "jobs lost or duplicated";
  std::set<svc::JobId> ids;
  for (const auto& jr : jobs) {
    ids.insert(jr.id);
    EXPECT_TRUE(jr.state == svc::JobState::kCompleted ||
                jr.state == svc::JobState::kFailed)
        << jr.desc.name << " not terminal";
    EXPECT_LE(jr.attempts, jr.desc.maxRetries + 1);
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(p.jobs));
  EXPECT_EQ(out.completed + out.failed,
            static_cast<std::uint64_t>(p.jobs));
  return out;
}

// --- satellite: the zero-RNG-when-clean witness --------------------------

TEST(ComputeFaults, DisabledFaultModelsDrawNoRandomNumbers) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll(600'000'000));
  kernel::JobSpec job;
  job.exe = workImage("clean", 40, 12'000);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run(4'000'000'000ULL));

  // A fault-free run must not touch any fault generator: this is what
  // keeps the seed's schedules bit-identical with the models compiled
  // in. draws() counts raw generator steps, so even a judged-and-
  // discarded draw would show up here.
  EXPECT_EQ(cluster.machine().memFaults().rngDraws(), 0u);
  EXPECT_EQ(cluster.machine().collectiveFaults().rngDraws(), 0u);
  EXPECT_EQ(cluster.machine().torusFaults().rngDraws(), 0u);
  EXPECT_FALSE(cluster.machine().memFaults().anyEnabled());
}

// --- rate-driven injection ----------------------------------------------

TEST(ComputeFaults, CorrectableRateIsScrubbedTransparently) {
  auto run = [](std::uint64_t seed) {
    rt::ClusterConfig cfg;
    cfg.computeNodes = 1;
    cfg.seed = seed;
    cfg.memFaults.ceRate = 0.02;  // per DDR access
    rt::Cluster cluster(cfg);
    EXPECT_TRUE(cluster.bootAll(600'000'000));
    kernel::JobSpec job;
    job.exe = memImage("ce", 8, 64 << 10);
    EXPECT_TRUE(cluster.loadJob(job));
    EXPECT_TRUE(cluster.run(4'000'000'000ULL));
    const cnk::CnkKernel* k = cluster.cnkOn(0);
    struct {
      std::uint64_t scrubbed, draws, correctable;
      bool panicked;
    } r{k->eccScrubbed(), cluster.machine().memFaults().rngDraws(),
        cluster.machine().memFaults().stats().correctable, k->panicked()};
    return r;
  };
  const auto a = run(7);
  // The job completed (run() returned true) with correctables flowing:
  // scrubbed by the handler, charged only handler cycles.
  EXPECT_GT(a.scrubbed, 0u);
  EXPECT_EQ(a.scrubbed, a.correctable);
  EXPECT_GT(a.draws, 0u);
  EXPECT_FALSE(a.panicked);

  // Same seed => identical fault decisions.
  const auto b = run(7);
  EXPECT_EQ(a.scrubbed, b.scrubbed);
  EXPECT_EQ(a.draws, b.draws);
}

TEST(ComputeFaults, UncorrectableRateFailStopsTheJob) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 1;
  cfg.seed = 11;
  cfg.memFaults.ueRate = 0.001;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll(600'000'000));
  kernel::JobSpec job;
  job.exe = memImage("ue", 8, 64 << 10);
  ASSERT_TRUE(cluster.loadJob(job));
  cluster.run(4'000'000'000ULL);
  const cnk::CnkKernel* k = cluster.cnkOn(0);
  // The panic fail-stops the job, which is what ends run(); the dump
  // is still in flight on the fship path — drain the engine until it
  // lands.
  cluster.engine().runWhile([&] { return k->coredumpsShipped() > 0; },
                            100'000'000);
  ASSERT_GT(cluster.machine().memFaults().stats().uncorrectable, 0u)
      << "rate produced no UE; raise ueRate or reps";
  // The kernel panicked exactly once, logged the fatal, shipped one
  // dump; the poisoned access never retired into user state.
  EXPECT_TRUE(k->panicked());
  EXPECT_EQ(k->coredumpsShipped(), 1u);
  bool sawFatal = false;
  for (const auto& e : cluster.kernelOn(0).rasLog()) {
    if (e.code == kernel::RasEvent::Code::kEccUncorrectable) {
      sawFatal = true;
    }
  }
  EXPECT_TRUE(sawFatal);
}

// --- UE panic + lightweight coredump -------------------------------------

TEST(ComputeFaults, UePanicShipsDeterministicCoredump) {
  FaultStreamParams p;
  p.seed = 3;
  p.memUes = 2;
  const FaultStreamOutcome a = runFaultStream(p);

  EXPECT_GT(a.ueFatals, 0u);
  EXPECT_GT(a.coredumpsShipped, 0u);
  EXPECT_EQ(a.coredumpRas, a.coredumpsShipped);
  ASSERT_FALSE(a.coredumps.empty()) << "no coredump landed on any I/O node";
  for (const auto& [node, bytes] : a.coredumps) {
    sim::ByteReader r(bytes);
    EXPECT_EQ(r.u32(), cnk::kCoredumpMagic) << "bad magic, node " << node;
    EXPECT_EQ(r.u32(), 1u) << "bad version, node " << node;
  }
  // Every node that panicked is repaired and back in service.
  for (std::size_t n = 0; n < a.finalStates.size(); ++n) {
    EXPECT_EQ(a.finalStates[n], svc::NodeLifecycle::kReady)
        << "node " << n << " never returned";
  }

  // Replay: identical schedule, identical RAS stream, byte-identical
  // dumps.
  const FaultStreamOutcome b = runFaultStream(p);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.rasLog, b.rasLog);
  EXPECT_EQ(a.coredumps, b.coredumps);
}

// --- heartbeat watchdog --------------------------------------------------

TEST(ComputeFaults, WatchdogDetectsHangRequeuesAndReboots) {
  FaultStreamParams p;
  p.seed = 5;
  p.coreHangs = 2;
  const FaultStreamOutcome a = runFaultStream(p);

  // Nothing reported the hang except the watchdog — and it did.
  EXPECT_GT(a.hangsDetected, 0u);
  EXPECT_EQ(a.hangFatals, a.hangsDetected);
  // Reboot-in-place cleared the frozen cores: every node came back.
  for (std::size_t n = 0; n < a.finalStates.size(); ++n) {
    EXPECT_EQ(a.finalStates[n], svc::NodeLifecycle::kReady)
        << "node " << n << " never returned";
  }
  const FaultStreamOutcome b = runFaultStream(p);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.rasLog, b.rasLog);
}

TEST(ComputeFaults, WatchdogSilentWithoutHangs) {
  // The watchdog armed on a healthy stream must never fire: progress
  // counters keep advancing, so no false hang declarations.
  FaultStreamParams p;
  p.seed = 9;
  p.jobs = 20;
  const FaultStreamOutcome a = runFaultStream(p);
  EXPECT_EQ(a.hangsDetected, 0u);
  EXPECT_EQ(a.hangFatals, 0u);
  EXPECT_EQ(a.fatals, 0u);
  EXPECT_EQ(a.failed, 0u);
}

// --- per-node failure budget ---------------------------------------------

TEST(ComputeFaults, FailureBudgetRetiresRepeatOffender) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.seed = 13;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.nodeFailureBudget = 2;
  svc::ServiceHost host(cluster, snCfg);

  sim::Rng rng(13, "budget-jobs");
  int arrived = 0;
  const int kJobs = 24;
  for (int i = 0; i < kJobs; ++i) {
    svc::JobDesc jd;
    jd.name = 'b' + std::to_string(i);
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(2));
    const std::uint64_t reps = 6 + rng.nextBelow(12);
    jd.exe = workImage(jd.name, reps, 10'000);
    jd.estCycles = reps * 10'000 + 50'000;
    jd.maxRetries = 3;
    cluster.engine().scheduleAt(rng.nextBelow(6'000'000),
                                [&host, jd, &arrived] {
                                  host.submit(jd);
                                  ++arrived;
                                });
  }

  // Two UEs on node 0, spaced wider than the repair window (~2M
  // cycles) but inside the job stream, so the node fails, repairs,
  // comes back — and fails again, blowing its budget of 2.
  for (const sim::Cycle at : {1'000'000, 4'500'000}) {
    cluster.engine().scheduleAt(at, [&cluster, &host] {
      cluster.machine().node(0).injectUncorrectable(0xBAD00);
      if (host.alive()) host.node().poke();
    });
  }

  host.start();
  ASSERT_TRUE(cluster.engine().runWhile(
      [&] { return arrived == kJobs && host.drained(); }, 2'000'000'000));

  EXPECT_EQ(host.node().partitions().state(0),
            svc::NodeLifecycle::kRetired);
  EXPECT_EQ(host.node().count(svc::SvcCounter::kNodesRetired), 1u);
  EXPECT_GE(host.node().partitions().failuresOf(0), 2u);
  // The machine kept scheduling around the corpse.
  svc::SvcMetrics m = host.metrics();
  EXPECT_EQ(m.jobsCompleted + m.jobsFailed,
            static_cast<std::uint64_t>(kJobs));
  for (int n = 1; n < 4; ++n) {
    EXPECT_EQ(host.node().partitions().state(n),
              svc::NodeLifecycle::kReady);
  }
}

// --- satellite: svc restart racing a node death --------------------------

TEST(ComputeFaults, SvcCrashBetweenNodeDeathAndRequeueLosesNothing) {
  // A UE takes node 1 down at T; the control plane fail-stops 10k
  // cycles later — before its next pump, i.e. before it has seen the
  // fatal or requeued the victim — and again mid-repair-window. The
  // restarted instance must reconcile from its checkpoint + the RAS
  // cursors: the job is requeued exactly once, the repair deadline
  // survives, and nothing is lost or duplicated.
  auto run = [](std::uint64_t seed) {
    rt::ClusterConfig cfg;
    cfg.computeNodes = 4;
    cfg.seed = seed;
    rt::Cluster cluster(cfg);
    svc::ServiceNodeConfig snCfg;
    svc::ServiceHost host(cluster, snCfg);

    sim::Rng rng(seed, "race-jobs");
    int arrived = 0;
    const int kJobs = 20;
    for (int i = 0; i < kJobs; ++i) {
      svc::JobDesc jd;
      jd.name = 'r' + std::to_string(i);
      jd.nodes = 1 + static_cast<int>(rng.nextBelow(3));
      const std::uint64_t reps = 8 + rng.nextBelow(16);
      jd.exe = workImage(jd.name, reps, 10'000);
      jd.estCycles = reps * 10'000 + 50'000;
      jd.maxRetries = 3;
      cluster.engine().scheduleAt(rng.nextBelow(4'000'000),
                                  [&host, jd, &arrived] {
                                    host.submit(jd);
                                    ++arrived;
                                  });
    }

    const sim::Cycle ueAt = 2'000'000;
    cluster.engine().scheduleAt(ueAt, [&cluster] {
      cluster.machine().node(1).injectUncorrectable(0xDEAD00);
      // Deliberately no poke: the service node is about to die; the
      // restarted instance must find the fatal on its own.
    });
    host.scheduleCrashRestart(ueAt + 10'000, 300'000);
    // Second outage lands inside node 1's repair window (repair =
    // 2M cycles from whenever the restarted instance handles the
    // fatal), so the kRepairDone deadline must survive a restart too.
    host.scheduleCrashRestart(ueAt + 1'500'000, 300'000);

    host.start();
    struct Out {
      bool drained;
      std::uint64_t hash, completed, failed, crashes;
      std::size_t jobCount;
      bool node1Ready;
    } out{};
    out.drained = cluster.engine().runWhile(
        [&] { return arrived == kJobs && host.drained(); },
        2'000'000'000);
    svc::SvcMetrics m = host.metrics();
    out.hash = m.scheduleHash;
    out.completed = m.jobsCompleted;
    out.failed = m.jobsFailed;
    out.crashes = m.serviceCrashes;
    out.jobCount = host.node().jobs().size();
    out.node1Ready = host.node().partitions().state(1) ==
                     svc::NodeLifecycle::kReady;

    EXPECT_TRUE(out.drained);
    EXPECT_EQ(out.crashes, 2u);
    EXPECT_EQ(out.jobCount, static_cast<std::size_t>(kJobs))
        << "restart lost or duplicated a job";
    EXPECT_EQ(out.completed + out.failed,
              static_cast<std::uint64_t>(kJobs));
    EXPECT_TRUE(out.node1Ready) << "node 1 never finished its repair";
    std::set<svc::JobId> ids;
    for (const auto& jr : host.node().jobs()) {
      ids.insert(jr.id);
      EXPECT_TRUE(jr.state == svc::JobState::kCompleted ||
                  jr.state == svc::JobState::kFailed);
    }
    EXPECT_EQ(ids.size(), static_cast<std::size_t>(kJobs));
    return out.hash;
  };
  EXPECT_EQ(run(17), run(17)) << "same-seed replay diverged";
}

// --- all three fault planes composed -------------------------------------

TEST(ComputeFaults, ComposedFaultPlanesReplayIdentically) {
  FaultStreamParams p;
  p.seed = envU64("COMPUTE_FAULTS_SEED", 2);
  p.jobs = 60;
  p.memUes = 2;
  p.ceStorms = 2;
  p.coreHangs = 1;
  p.svcCrashes = 2;
  p.nodeDeaths = 2;
  p.warnStorms = 2;
  p.ioDeaths = 1;
  const FaultStreamOutcome a = runFaultStream(p);
  const FaultStreamOutcome b = runFaultStream(p);
  EXPECT_EQ(a.hash, b.hash) << "composed replay diverged";
  EXPECT_EQ(a.rasLog, b.rasLog);
  EXPECT_EQ(a.coredumps, b.coredumps);
  // The composition actually exercised the new plane.
  EXPECT_GT(a.ueFatals + a.hangFatals + a.eccScrubbed, 0u);
}

// --- slow lane: multi-seed sweep -----------------------------------------

TEST(ComputeFaultsSlow, MultiSeedSweep) {
  if (std::getenv("COMPUTE_FAULTS_SLOW") == nullptr) {
    GTEST_SKIP() << "slow lane only (ctest -C slow -L slow)";
  }
  const int seeds = static_cast<int>(envU64("COMPUTE_FAULTS_SEEDS", 8));
  for (int s = 1; s <= seeds; ++s) {
    FaultStreamParams p;
    p.seed = static_cast<std::uint64_t>(s);
    p.jobs = 60;
    p.memUes = 2;
    p.ceStorms = 2;
    p.coreHangs = 1;
    p.svcCrashes = 1;
    p.nodeDeaths = 1;
    p.warnStorms = 1;
    const FaultStreamOutcome a = runFaultStream(p);
    const FaultStreamOutcome b = runFaultStream(p);
    EXPECT_EQ(a.hash, b.hash) << "seed " << s << " schedule diverged";
    EXPECT_EQ(a.rasLog, b.rasLog) << "seed " << s << " RAS log diverged";
    EXPECT_EQ(a.coredumps, b.coredumps)
        << "seed " << s << " coredump bytes diverged";
  }
}

}  // namespace
}  // namespace bg
