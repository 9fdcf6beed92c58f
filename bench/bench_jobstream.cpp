// Multi-tenant job-stream benchmark for the service-node control
// subsystem (src/svc): a seeded stream of 100+ mixed CNK/FWK jobs
// arrives at an 8-node heterogeneous machine, one node dies mid-run
// (injected fatal RAS event), and the scheduler drains the backlog
// through drain/retry/reboot. With --crashes N the service node itself
// fail-stops N times at seeded cycles and restarts from its
// persistent-memory checkpoint (--restart-delay sets the outage).
// --link-deaths / --link-storms arm the torus hard-fault plane:
// seeded directed-link fail-stops and CRC-retry storms, with
// RAS-driven checkpoint-then-migrate enabled and the migration /
// route-around counters reported (and emitted in --json).
// Reports jobs/sec, queue wait, node utilization, RAS counts, and
// failover counters; --json writes them machine-readably.
//
// The whole stream — arrivals, placements, the failure, the retry,
// every crash and restart — runs on the deterministic event engine, so
// two runs with the same seed produce an identical schedule hash
// (verified every run).
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "fault_schedule.hpp"
#include "runtime/app.hpp"
#include "svc/failover.hpp"
#include "svc/service_node.hpp"
#include "vm/builder.hpp"

namespace {

using namespace bg;

struct StreamParams {
  int jobs = 120;
  int nodes = 8;
  int fwkNodes = 2;  // trailing nodes run the FWK personality
  std::uint64_t seed = 42;
  svc::SchedPolicyKind policy = svc::SchedPolicyKind::kBackfill;
  int failNode = 2;
  sim::Cycle failCycle = 4'000'000;
  int crashes = 0;                     // service-node fail-stops
  sim::Cycle restartDelay = 250'000;   // outage length per crash
  // Compute-node fault plane (seeded; all-zero default changes nothing).
  int memUes = 0;                      // uncorrectable-ECC panics
  int ceStorms = 0;                    // correctable-ECC bursts
  int coreHangs = 0;                   // frozen cores (watchdog bait)
  sim::Cycle hangTimeout = 400'000;    // watchdog freeze threshold
  std::uint32_t budget = 0;            // per-node failure budget (0 = off)
  // Torus hard-fault plane (seeded; arming it enables migration).
  int linkDeaths = 0;                  // fail-stopped directed links
  int linkStorms = 0;                  // CRC-retry storms (degraded links)
  std::string rasLogPath;              // dump the aggregated RAS stream
};

std::shared_ptr<kernel::ElfImage> workImage(int id, std::uint64_t reps,
                                            std::uint64_t cyclesPerRep) {
  vm::ProgramBuilder b("job" + std::to_string(id));
  const auto top = b.loopBegin(16, static_cast<std::int64_t>(reps));
  b.compute(cyclesPerRep);
  b.loopEnd(16, top);
  b.halt(0);
  return kernel::ElfImage::makeExecutable("job" + std::to_string(id),
                                          std::move(b).build());
}

struct StreamResult {
  svc::SvcMetrics metrics;
  bool drained = false;
  std::uint64_t retries = 0;
  std::uint64_t coldStarts = 0;
  cnk::FshipStats fship;  // cluster-wide function-shipping counters
  io::CiodStats ciod;     // cluster-wide daemon counters
  std::uint64_t coredumps = 0;    // lightweight coredumps shipped (CNK)
  std::uint64_t eccScrubbed = 0;  // correctables scrubbed by kernels
};

StreamResult runStream(const StreamParams& p) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = p.nodes;
  cfg.seed = p.seed;
  cfg.nodeKernels.assign(static_cast<std::size_t>(p.nodes),
                         rt::KernelKind::kCnk);
  for (int n = p.nodes - p.fwkNodes; n < p.nodes; ++n) {
    cfg.nodeKernels[static_cast<std::size_t>(n)] = rt::KernelKind::kFwk;
  }
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig scfg;
  scfg.policy = p.policy;
  // Watchdog + budget knobs arm only with injected compute faults so
  // the zero-fault stream stays schedule-identical to the seed run.
  if (p.coreHangs > 0) scfg.hangTimeoutCycles = p.hangTimeout;
  if (p.ceStorms > 0) scfg.ras.warnDrainThreshold = 8;
  scfg.nodeFailureBudget = p.budget;
  // Link faults arm checkpoint-then-migrate and the CRC-storm
  // predictor; the zero-fault stream keeps its pinned schedule.
  if (p.linkDeaths > 0 || p.linkStorms > 0) {
    scfg.migrate.enabled = true;
    scfg.ras.linkSickThreshold = 6;
  }
  svc::ServiceHost host(cluster, scfg);

  // Seeded job mix: width 1-3, ~1/4 FWK, work 100K-600K cycles.
  sim::Rng rng(p.seed, "jobstream");
  int submitted = 0;
  sim::Cycle arrival = 0;
  for (int i = 0; i < p.jobs; ++i) {
    const bool fwk = rng.nextBelow(4) == 0;
    const int width = fwk ? 1 : 1 + static_cast<int>(rng.nextBelow(3));
    const std::uint64_t reps = 8 + rng.nextBelow(25);
    const std::uint64_t perRep = 12'000;
    svc::JobDesc jd;
    jd.name = "job" + std::to_string(i);
    jd.kernel = fwk ? rt::KernelKind::kFwk : rt::KernelKind::kCnk;
    jd.nodes = width;
    jd.exe = workImage(i, reps, perRep);
    jd.estCycles = reps * perRep + 120'000;  // user estimate incl. slack
    arrival += rng.nextBelow(60'000);
    cluster.engine().scheduleAt(arrival, [&host, jd, &submitted] {
      host.submit(jd);
      ++submitted;
    });
  }
  const sim::Cycle lastArrival = arrival;

  // The node death goes straight into the victim kernel's RAS ring so
  // it lands even if the service node happens to be down at that
  // cycle; the (restarted) control plane picks it up on its next poll.
  cluster.engine().scheduleAt(p.failCycle, [&cluster, &host, n = p.failNode] {
    cluster.kernelOn(n).logRas(kernel::RasEvent::Code::kNodeFailure,
                               kernel::RasEvent::Severity::kFatal, 0, 0,
                               0xFA11);
    if (host.alive()) host.node().poke();
  });

  // Seeded service-node fail-stops spread across the arrival window.
  sim::Rng crng(p.seed, "svc-crash");
  for (int c = 0; c < p.crashes; ++c) {
    const sim::Cycle at = 200'000 + crng.nextBelow(lastArrival + 2'000'000);
    host.scheduleCrashRestart(at, p.restartDelay);
  }

  // Seeded compute-node faults (UE panics, CE storms, core hangs) over
  // the same window. Zero counts build an empty schedule and draw no
  // random numbers.
  const testing::FaultSchedule faults = testing::FaultSchedule::random(
      p.seed, p.nodes, lastArrival + 2'000'000, 0, 0, 0, 0, 1, p.memUes,
      p.ceStorms, p.coreHangs, /*ckptIoCrashes=*/0, /*ckptUes=*/0,
      /*ckptSvcCrashes=*/0, p.linkDeaths, p.linkStorms);
  faults.arm(cluster, host);

  host.start();

  StreamResult r;
  r.drained = cluster.engine().runWhile(
      [&] { return submitted == p.jobs && host.drained(); },
      2'000'000'000ULL);
  r.metrics = host.metrics();
  r.retries = r.metrics.count(svc::SvcCounter::kRetries);
  r.coldStarts = host.coldStarts();
  r.fship = cluster.fshipTotals();
  r.ciod = cluster.ciodTotals();
  for (int n = 0; n < p.nodes; ++n) {
    if (const cnk::CnkKernel* k = cluster.cnkOn(n)) {
      r.coredumps += k->coredumpsShipped();
      r.eccScrubbed += k->eccScrubbed();
    }
  }

  if (!p.rasLogPath.empty()) {
    // One line per aggregated RAS event — the seed-identity witness the
    // CI sweep diffs across runs (and uploads as an artifact).
    if (std::FILE* f = std::fopen(p.rasLogPath.c_str(), "w")) {
      for (const svc::SvcRasEvent& e : host.node().ras().stream()) {
        std::fprintf(f, "%llu node=%d %s sev=%d pid=%u tid=%u detail=%llx\n",
                     static_cast<unsigned long long>(e.event.cycle), e.node,
                     kernel::rasCodeName(e.event.code),
                     static_cast<int>(e.event.severity), e.event.pid,
                     e.event.tid,
                     static_cast<unsigned long long>(e.event.detail));
      }
      std::fclose(f);
    }
  }
  return r;
}

void printMetrics(const char* title, const StreamResult& res,
                  bool showFaultPlane, bool showLinkPlane) {
  const svc::SvcMetrics& m = res.metrics;
  const auto count = [&m](svc::SvcCounter c) {
    return static_cast<unsigned long long>(m.count(c));
  };
  std::printf("\n%s\n", title);
  bg::bench::printRule();
  std::printf("jobs: %llu submitted, %llu completed, %llu failed, "
              "%llu retries after node loss\n",
              static_cast<unsigned long long>(m.jobsSubmitted),
              static_cast<unsigned long long>(m.jobsCompleted),
              static_cast<unsigned long long>(m.jobsFailed),
              count(svc::SvcCounter::kRetries));
  std::printf("throughput: %.1f jobs/sec over %.3f simulated sec\n",
              m.jobsPerSecond, m.elapsedSeconds);
  std::printf("queue wait: mean %.0f cycles, max %llu cycles\n",
              m.meanQueueWaitCycles,
              static_cast<unsigned long long>(m.maxQueueWaitCycles));
  std::printf("utilization: %.1f%% across %d nodes (%llu node failures)\n",
              100.0 * m.utilization, m.nodes,
              count(svc::SvcCounter::kNodeFailures));
  std::printf("RAS: %llu info / %llu warn / %llu error / %llu fatal; "
              "%llu throttled, %llu dropped\n",
              static_cast<unsigned long long>(m.rasInfo),
              static_cast<unsigned long long>(m.rasWarn),
              static_cast<unsigned long long>(m.rasError),
              static_cast<unsigned long long>(m.rasFatal),
              static_cast<unsigned long long>(m.rasThrottled),
              static_cast<unsigned long long>(m.rasDropped));
  std::printf("failover: %llu svc crashes, %llu restarts (%llu cold), "
              "%llu checkpoint saves (%llu bytes last, %llu failed), "
              "%llu predictive drains\n",
              static_cast<unsigned long long>(m.serviceCrashes),
              static_cast<unsigned long long>(m.serviceRestarts),
              static_cast<unsigned long long>(res.coldStarts),
              static_cast<unsigned long long>(m.checkpointSaves),
              static_cast<unsigned long long>(m.checkpointBytes),
              static_cast<unsigned long long>(m.checkpointFailedSaves),
              count(svc::SvcCounter::kPredictiveDrains));
  std::printf("I/O path: %llu ops shipped, %llu retransmits, "
              "%llu ciod errors, %llu replays, "
              "%llu io failovers + %llu io reboots\n",
              static_cast<unsigned long long>(res.fship.requests),
              static_cast<unsigned long long>(res.fship.retransmits),
              static_cast<unsigned long long>(res.ciod.errors),
              static_cast<unsigned long long>(res.ciod.replays),
              count(svc::SvcCounter::kIoFailovers),
              count(svc::SvcCounter::kIoReboots));
  if (showFaultPlane) {
    std::printf("fault plane: %llu CE scrubbed, %llu coredumps shipped, "
                "%llu hangs detected, %llu nodes retired, "
                "mean requeue %.0f cycles (%llu samples)\n",
                static_cast<unsigned long long>(res.eccScrubbed),
                static_cast<unsigned long long>(res.coredumps),
                static_cast<unsigned long long>(m.hangsDetected),
                count(svc::SvcCounter::kNodesRetired),
                m.meanRequeueCycles(),
                count(svc::SvcCounter::kRequeueCount));
  }
  if (showLinkPlane) {
    std::printf("link plane: %llu migrations (%llu requests, "
                "%llu fallbacks), %llu degraded jobs, %llu sick nodes, "
                "%llu cycles saved vs scratch\n",
                count(svc::SvcCounter::kMigrations),
                count(svc::SvcCounter::kMigrateRequests),
                count(svc::SvcCounter::kMigrateFallbacks),
                count(svc::SvcCounter::kDegradedJobs),
                static_cast<unsigned long long>(m.linkSickNodes),
                count(svc::SvcCounter::kMigrateCyclesSaved));
    std::printf("route-around: %llu detours (+%llu hops), "
                "%llu unroutable, %llu CRC retries\n",
                static_cast<unsigned long long>(m.linkDetours),
                static_cast<unsigned long long>(m.linkDetourHops),
                static_cast<unsigned long long>(m.linkUnroutable),
                static_cast<unsigned long long>(m.linkCrcRetries));
  }
  std::printf("schedule hash: %016llx\n",
              static_cast<unsigned long long>(m.scheduleHash));
}

}  // namespace

int main(int argc, char** argv) {
  StreamParams p;
  bool fifo = false;
  bench::Args args("bench_jobstream", "write the run-1 metrics as JSON");
  args.value("--jobs", &p.jobs, "N", "jobs in the stream")
      .value("--nodes", &p.nodes, "N", "compute nodes (the last 2 run FWK)")
      .value("--seed", &p.seed, "S", "stream and fault seed")
      .flag("--fifo", &fifo, "FIFO scheduling instead of backfill")
      .value("--crashes", &p.crashes, "N", "service-node fail-stops")
      .value("--restart-delay", &p.restartDelay, "CYCLES",
             "outage length per crash")
      .value("--mem-ues", &p.memUes, "N", "uncorrectable-ECC panics")
      .value("--ce-storms", &p.ceStorms, "N", "correctable-ECC bursts")
      .value("--hangs", &p.coreHangs, "N", "frozen cores (watchdog bait)")
      .value("--hang-timeout", &p.hangTimeout, "CYCLES",
             "watchdog freeze threshold")
      .value("--budget", &p.budget, "N", "per-node failure budget (0 = off)")
      .value("--link-deaths", &p.linkDeaths, "N", "fail-stopped torus links")
      .value("--link-storms", &p.linkStorms, "N", "CRC-retry storms")
      .value("--ras-log", &p.rasLogPath, "PATH",
             "dump the aggregated RAS stream");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  if (fifo) p.policy = svc::SchedPolicyKind::kFifo;
  const bool computeFaults =
      p.memUes > 0 || p.ceStorms > 0 || p.coreHangs > 0;
  const bool linkFaults = p.linkDeaths > 0 || p.linkStorms > 0;

  std::printf("job-stream benchmark: %d jobs, %d nodes (%d FWK), "
              "policy=%s, node %d dies at cycle %llu, seed=%llu, "
              "%d svc crashes (outage %llu cycles)\n",
              p.jobs, p.nodes, p.fwkNodes,
              p.policy == svc::SchedPolicyKind::kFifo ? "fifo" : "backfill",
              p.failNode, static_cast<unsigned long long>(p.failCycle),
              static_cast<unsigned long long>(p.seed), p.crashes,
              static_cast<unsigned long long>(p.restartDelay));
  if (computeFaults) {
    std::printf("compute faults: %d UE panics, %d CE storms, %d core hangs "
                "(watchdog timeout %llu cycles, failure budget %u)\n",
                p.memUes, p.ceStorms, p.coreHangs,
                static_cast<unsigned long long>(p.hangTimeout), p.budget);
  }
  if (linkFaults) {
    std::printf("link faults: %d link deaths, %d CRC storms "
                "(migration armed, storm threshold 6)\n",
                p.linkDeaths, p.linkStorms);
  }

  const StreamResult run1 = runStream(p);
  if (!run1.drained) {
    std::fprintf(stderr, "stream did not drain\n");
    return 1;
  }
  printMetrics("run 1", run1, computeFaults, linkFaults);

  // Determinism witness: replay the identical stream.
  const StreamResult run2 = runStream(p);
  const bool match =
      run2.metrics.scheduleHash == run1.metrics.scheduleHash;
  std::printf("\nreplay schedule hash: %016llx (%s)\n",
              static_cast<unsigned long long>(run2.metrics.scheduleHash),
              match ? "MATCH" : "MISMATCH");

  if (args.json() != nullptr) {
    sim::Json j = sim::Json::object();
    j.set("bench", "jobstream");
    j.set("jobs", static_cast<std::int64_t>(p.jobs));
    j.set("nodes", static_cast<std::int64_t>(p.nodes));
    j.set("seed", p.seed);
    j.set("policy",
          p.policy == svc::SchedPolicyKind::kFifo ? "fifo" : "backfill");
    j.set("crashes", static_cast<std::int64_t>(p.crashes));
    j.set("restart_delay", p.restartDelay);
    sim::Json fi = sim::Json::object();
    fi.set("mem_ues", static_cast<std::int64_t>(p.memUes));
    fi.set("ce_storms", static_cast<std::int64_t>(p.ceStorms));
    fi.set("core_hangs", static_cast<std::int64_t>(p.coreHangs));
    fi.set("hang_timeout", p.hangTimeout);
    fi.set("failure_budget", static_cast<std::int64_t>(p.budget));
    fi.set("link_deaths", static_cast<std::int64_t>(p.linkDeaths));
    fi.set("link_storms", static_cast<std::int64_t>(p.linkStorms));
    j.set("fault_injection", std::move(fi));
    j.set("metrics", run1.metrics.toJson());
    sim::Json io = sim::Json::object();
    io.set("fship", bench::fshipJson(run1.fship));
    io.set("ciod", bench::ciodJson(run1.ciod));
    j.set("io", std::move(io));
    j.set("cold_starts", run1.coldStarts);
    j.set("failed_saves", run1.metrics.checkpointFailedSaves);
    j.set("coredumps_shipped", run1.coredumps);
    j.set("ecc_scrubbed", run1.eccScrubbed);
    j.set("replay_hash_match", match);
    if (!bench::maybeWriteJson(args.json(), j)) return 1;
  }
  return match ? 0 : 1;
}
