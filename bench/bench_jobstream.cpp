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
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
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
  r.retries = r.metrics.jobRetries;
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

sim::Json ioCountersJson(const StreamResult& r) {
  sim::Json io = sim::Json::object();
  sim::Json f = sim::Json::object();
  f.set("requests", r.fship.requests);
  f.set("retransmits", r.fship.retransmits);
  f.set("timeouts", r.fship.timeouts);
  f.set("duplicate_replies", r.fship.duplicateReplies);
  f.set("corrupt_replies", r.fship.corruptReplies);
  f.set("eio_returns", r.fship.eioReturns);
  f.set("rehomes", r.fship.rehomes);
  io.set("fship", std::move(f));
  sim::Json c = sim::Json::object();
  c.set("requests", r.ciod.requests);
  c.set("errors", r.ciod.errors);
  c.set("bad_checksums", r.ciod.badChecksums);
  c.set("replays", r.ciod.replays);
  c.set("stale_drops", r.ciod.staleDrops);
  c.set("restores", r.ciod.restores);
  io.set("ciod", std::move(c));
  return io;
}

void printMetrics(const char* title, const StreamResult& res,
                  bool showFaultPlane, bool showLinkPlane) {
  const svc::SvcMetrics& m = res.metrics;
  std::printf("\n%s\n", title);
  bg::bench::printRule();
  std::printf("jobs: %llu submitted, %llu completed, %llu failed, "
              "%llu retries after node loss\n",
              static_cast<unsigned long long>(m.jobsSubmitted),
              static_cast<unsigned long long>(m.jobsCompleted),
              static_cast<unsigned long long>(m.jobsFailed),
              static_cast<unsigned long long>(m.jobRetries));
  std::printf("throughput: %.1f jobs/sec over %.3f simulated sec\n",
              m.jobsPerSecond, m.elapsedSeconds);
  std::printf("queue wait: mean %.0f cycles, max %llu cycles\n",
              m.meanQueueWaitCycles,
              static_cast<unsigned long long>(m.maxQueueWaitCycles));
  std::printf("utilization: %.1f%% across %d nodes (%llu node failures)\n",
              100.0 * m.utilization, m.nodes,
              static_cast<unsigned long long>(m.nodeFailures));
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
              static_cast<unsigned long long>(m.predictiveDrains));
  std::printf("I/O path: %llu ops shipped, %llu retransmits, "
              "%llu ciod errors, %llu replays, "
              "%llu io failovers + %llu io reboots\n",
              static_cast<unsigned long long>(res.fship.requests),
              static_cast<unsigned long long>(res.fship.retransmits),
              static_cast<unsigned long long>(res.ciod.errors),
              static_cast<unsigned long long>(res.ciod.replays),
              static_cast<unsigned long long>(m.ioFailovers),
              static_cast<unsigned long long>(m.ioReboots));
  if (showFaultPlane) {
    std::printf("fault plane: %llu CE scrubbed, %llu coredumps shipped, "
                "%llu hangs detected, %llu nodes retired, "
                "mean requeue %.0f cycles (%llu samples)\n",
                static_cast<unsigned long long>(res.eccScrubbed),
                static_cast<unsigned long long>(res.coredumps),
                static_cast<unsigned long long>(m.hangsDetected),
                static_cast<unsigned long long>(m.nodesRetired),
                m.meanRequeueCycles,
                static_cast<unsigned long long>(m.requeueSamples));
  }
  if (showLinkPlane) {
    std::printf("link plane: %llu migrations (%llu requests, "
                "%llu fallbacks), %llu degraded jobs, %llu sick nodes, "
                "%llu cycles saved vs scratch\n",
                static_cast<unsigned long long>(m.migrations),
                static_cast<unsigned long long>(m.migrateRequests),
                static_cast<unsigned long long>(m.migrateFallbacks),
                static_cast<unsigned long long>(m.degradedJobs),
                static_cast<unsigned long long>(m.linkSickNodes),
                static_cast<unsigned long long>(m.migrateCyclesSaved));
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

constexpr const char* kUsage =
    "usage: bench_jobstream [--jobs N] [--nodes N] [--seed S] [--fifo]\n"
    "                       [--crashes N] [--restart-delay CYCLES]\n"
    "                       [--mem-ues N] [--ce-storms N] [--hangs N]\n"
    "                       [--hang-timeout CYCLES] [--budget N]\n"
    "                       [--link-deaths N] [--link-storms N]\n"
    "                       [--ras-log PATH] [--json PATH] [--help]\n";

/// Strict command line: every flag but --fifo and --help takes a value.
/// Returns the exit code to stop with (0 after --help, 2 on an unknown
/// flag or a missing value, with usage on stderr), or -1 to run.
int parseArgs(int argc, char** argv, StreamParams& p, std::string& jsonPath) {
  const auto toInt = [](const char* v) { return std::atoi(v); };
  const auto toU64 = [](const char* v) {
    return static_cast<std::uint64_t>(std::atoll(v));
  };
  const std::pair<const char*, std::function<void(const char*)>> valued[] = {
      {"--jobs", [&](const char* v) { p.jobs = toInt(v); }},
      {"--nodes", [&](const char* v) { p.nodes = toInt(v); }},
      {"--seed", [&](const char* v) { p.seed = toU64(v); }},
      {"--crashes", [&](const char* v) { p.crashes = toInt(v); }},
      {"--restart-delay", [&](const char* v) { p.restartDelay = toU64(v); }},
      {"--mem-ues", [&](const char* v) { p.memUes = toInt(v); }},
      {"--ce-storms", [&](const char* v) { p.ceStorms = toInt(v); }},
      {"--hangs", [&](const char* v) { p.coreHangs = toInt(v); }},
      {"--hang-timeout", [&](const char* v) { p.hangTimeout = toU64(v); }},
      {"--budget",
       [&](const char* v) { p.budget = static_cast<std::uint32_t>(toInt(v)); }},
      {"--link-deaths", [&](const char* v) { p.linkDeaths = toInt(v); }},
      {"--link-storms", [&](const char* v) { p.linkStorms = toInt(v); }},
      {"--ras-log", [&](const char* v) { p.rasLogPath = v; }},
      {"--json", [&](const char* v) { jsonPath = v; }},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (arg == "--fifo") {
      p.policy = svc::SchedPolicyKind::kFifo;
      continue;
    }
    const auto* flag = std::find_if(
        std::begin(valued), std::end(valued),
        [&](const auto& f) { return arg == f.first; });
    const char* reason = nullptr;
    if (flag == std::end(valued)) {
      reason = "unknown argument";
    } else if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      reason = "missing value for";
    }
    if (reason != nullptr) {
      std::fprintf(stderr, "bench_jobstream: %s '%s'\n", reason, argv[i]);
      std::fputs(kUsage, stderr);
      return 2;
    }
    flag->second(argv[++i]);
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  StreamParams p;
  std::string jsonPath;
  if (const int rc = parseArgs(argc, argv, p, jsonPath); rc >= 0) return rc;
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

  if (!jsonPath.empty()) {
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
    j.set("io", ioCountersJson(run1));
    j.set("cold_starts", run1.coldStarts);
    j.set("failed_saves", run1.metrics.checkpointFailedSaves);
    j.set("coredumps_shipped", run1.coredumps);
    j.set("ecc_scrubbed", run1.eccScrubbed);
    j.set("replay_hash_match", match);
    if (!j.writeFile(jsonPath)) {
      std::fprintf(stderr, "failed to write %s\n", jsonPath.c_str());
      return 1;
    }
    std::printf("wrote %s\n", jsonPath.c_str());
  }
  return match ? 0 : 1;
}
