// SIMPERF: host-side performance of the simulator itself — the one
// bench that measures *wall-clock* time; every other bench reports
// simulated cycles. It drives three workloads through the public API
// and reports simulated-cycles/sec and events/sec on this host:
//
//   events-micro   raw engine throughput: dense self-rescheduling
//                  chains (calendar-ring traffic), far-future events
//                  (heap tier), and a cancel/re-arm churn loop that
//                  mimics decrementer re-arming.
//   boot+fwq       a 32-node heterogeneous machine (CNK + FWK) boots
//                  and runs the FWQ noise kernel on every node.
//   jobstream      the service-node scheduler drains a seeded 60-job
//                  mix on 8 nodes (same code path as bench_jobstream);
//                  its schedule hash is reported as the determinism
//                  witness for this exact mix.
//
// --json <path> writes the per-phase and total numbers machine-
// readably; BENCH_simperf.json in the repo root records a before/after
// pair for the event-engine fast-path work. The boot+fwq and
// jobstream hashes are pinned by the perf-smoke CI job.
//
// Usage: bench_simperf [--quick] [--json <path>] [--help]. Any other
// argument is an error (exit 2), so a stale flag never silently runs
// the full bench.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/fwq.hpp"
#include "bench_util.hpp"
#include "runtime/app.hpp"
#include "sim/engine.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace {

using namespace bg;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct PhaseResult {
  std::string name;
  double wallSec = 0;
  std::uint64_t simCycles = 0;
  std::uint64_t events = 0;
  std::uint64_t hash = 0;  // schedule hash when the phase has one
};

// Determinism witness for phases without a service-node schedule hash:
// fold every node's RAS stream (boot completions, job load/exit, ...)
// into one digest. The final engine clock is reported separately as
// sim_cycles and is not mixed in.
std::uint64_t rasDigest(rt::Cluster& cluster) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (int n = 0; n < cluster.config().computeNodes; ++n) {
    for (const kernel::RasEvent& e : cluster.kernelOn(n).rasLog()) {
      mix(static_cast<std::uint64_t>(n));
      mix(e.cycle);
      mix(static_cast<std::uint64_t>(e.code));
      mix(static_cast<std::uint64_t>(e.severity));
      mix(e.detail);
    }
  }
  return h;
}

double eventsPerSec(const PhaseResult& p) {
  return p.wallSec > 0 ? static_cast<double>(p.events) / p.wallSec : 0;
}

double mcyclesPerSec(const PhaseResult& p) {
  return p.wallSec > 0 ? static_cast<double>(p.simCycles) / p.wallSec / 1e6
                       : 0;
}

// --- Phase 1: engine micro ------------------------------------------------

PhaseResult runEventsMicro(bool quick) {
  PhaseResult r;
  r.name = "events-micro";
  const int chains = 64;
  const std::uint64_t perChain = quick ? 20'000 : 200'000;
  const int churn = quick ? 5'000 : 20'000;
  const Clock::time_point t0 = Clock::now();

  sim::Engine e;
  // Dense tier: self-rescheduling chains with core-like short delays.
  struct Chain {
    sim::Engine* e;
    sim::Cycle delay;
    std::uint64_t remaining;
    void fire() {
      if (--remaining == 0) return;
      e->schedule(delay, [this] { fire(); });
    }
  };
  std::vector<Chain> cs(chains);
  for (int i = 0; i < chains; ++i) {
    cs[i] = Chain{&e, static_cast<sim::Cycle>(1 + i % 7), perChain};
    e.schedule(static_cast<sim::Cycle>(i), [c = &cs[i]] { c->fire(); });
  }
  // Far tier: events past any near-future window.
  for (int i = 0; i < 1024; ++i) {
    e.schedule(1'000'000 + static_cast<sim::Cycle>(i) * 997, [] {});
  }
  // Cancel churn: decrementer-style re-arm (schedule far, cancel,
  // repeat) — the pattern that grew the old engine's tombstone list.
  for (int i = 0; i < churn; ++i) {
    const sim::EventId id = e.schedule(2'000'000 + i, [] {});
    e.cancel(id);
  }
  e.run();

  r.wallSec = secondsSince(t0);
  r.simCycles = e.now();
  r.events = e.eventsProcessed();
  return r;
}

// --- Phase 2: 32-node boot + FWQ ------------------------------------------

PhaseResult runBootFwq(bool quick) {
  PhaseResult r;
  r.name = "boot+fwq";
  const Clock::time_point t0 = Clock::now();

  rt::ClusterConfig cfg;
  cfg.computeNodes = 32;
  cfg.kernel = rt::KernelKind::kCnk;
  // Heterogeneous mix: the last 8 nodes run the Linux-like FWK (timer
  // tick + daemons), which keeps the decrementer re-arm path hot.
  cfg.nodeKernels.assign(32, rt::KernelKind::kCnk);
  for (int n = 24; n < 32; ++n) cfg.nodeKernels[n] = rt::KernelKind::kFwk;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(200'000'000)) {
    std::fprintf(stderr, "boot+fwq: boot failed\n");
    return r;
  }
  apps::FwqParams fp;
  fp.samples = quick ? 60 : 400;
  kernel::JobSpec job;
  job.exe = apps::fwqImage(fp);
  if (!cluster.loadJob(job) || !cluster.run(4'000'000'000ULL)) {
    std::fprintf(stderr, "boot+fwq: run failed\n");
  }

  r.wallSec = secondsSince(t0);
  r.simCycles = cluster.engine().now();
  r.events = cluster.engine().eventsProcessed();
  r.hash = rasDigest(cluster);
  return r;
}

// --- Phase 3: service-node jobstream ---------------------------------------

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

PhaseResult runJobstream(bool quick) {
  PhaseResult r;
  r.name = "jobstream";
  const int jobs = quick ? 30 : 60;
  const Clock::time_point t0 = Clock::now();

  rt::ClusterConfig cfg;
  cfg.computeNodes = 8;
  cfg.seed = 42;
  cfg.nodeKernels.assign(8, rt::KernelKind::kCnk);
  cfg.nodeKernels[6] = rt::KernelKind::kFwk;
  cfg.nodeKernels[7] = rt::KernelKind::kFwk;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster, svc::ServiceNodeConfig{});

  sim::Rng rng(cfg.seed, "jobstream");
  int submitted = 0;
  sim::Cycle arrival = 0;
  for (int i = 0; i < jobs; ++i) {
    const bool fwk = rng.nextBelow(4) == 0;
    const int width = fwk ? 1 : 1 + static_cast<int>(rng.nextBelow(3));
    const std::uint64_t reps = 8 + rng.nextBelow(25);
    svc::JobDesc jd;
    jd.name = "job" + std::to_string(i);
    jd.kernel = fwk ? rt::KernelKind::kFwk : rt::KernelKind::kCnk;
    jd.nodes = width;
    jd.exe = workImage(i, reps, 12'000);
    jd.estCycles = reps * 12'000 + 120'000;
    arrival += rng.nextBelow(60'000);
    cluster.engine().scheduleAt(arrival, [&host, jd, &submitted] {
      host.submit(jd);
      ++submitted;
    });
  }
  host.start();
  if (!cluster.engine().runWhile(
          [&] { return submitted == jobs && host.drained(); },
          2'000'000'000ULL)) {
    std::fprintf(stderr, "jobstream: did not drain\n");
  }

  r.wallSec = secondsSince(t0);
  r.simCycles = cluster.engine().now();
  r.events = cluster.engine().eventsProcessed();
  r.hash = host.metrics().scheduleHash;
  return r;
}

void printPhase(const PhaseResult& p) {
  std::printf("%-14s %8.3f s  %14llu cycles  %12llu events  "
              "%9.2f Mcyc/s  %10.0f events/s",
              p.name.c_str(), p.wallSec,
              static_cast<unsigned long long>(p.simCycles),
              static_cast<unsigned long long>(p.events), mcyclesPerSec(p),
              eventsPerSec(p));
  if (p.hash != 0) {
    std::printf("  hash=%016llx", static_cast<unsigned long long>(p.hash));
  }
  std::printf("\n");
}

sim::Json phaseJson(const PhaseResult& p) {
  sim::Json j = sim::Json::object();
  j.set("name", p.name);
  j.set("wall_sec", p.wallSec);
  j.set("sim_cycles", p.simCycles);
  j.set("events", p.events);
  j.set("mcycles_per_sec", mcyclesPerSec(p));
  j.set("events_per_sec", eventsPerSec(p));
  if (p.hash != 0) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(p.hash));
    j.set("schedule_hash", std::string(buf));
  }
  return j;
}

constexpr char kUsage[] =
    "usage: bench_simperf [--quick] [--json <path>] [--help]\n"
    "  --quick        shorter phases (CI smoke)\n"
    "  --json <path>  write per-phase results as JSON\n"
    "  --help         print this message and exit\n";

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* jsonPath = nullptr;
  if (const int rc = bg::bench::parseQuickJsonArgs(
          argc, argv, "bench_simperf", kUsage, &quick, &jsonPath);
      rc >= 0) {
    return rc;
  }

  std::printf("simperf: host throughput of the simulator (wall clock)\n");
  std::printf("mix: events-micro + 32-node boot+FWQ + 8-node jobstream%s\n",
              quick ? " (--quick)" : "");
  bg::bench::printRule();

  std::vector<PhaseResult> phases;
  phases.push_back(runEventsMicro(quick));
  printPhase(phases.back());
  phases.push_back(runBootFwq(quick));
  printPhase(phases.back());
  phases.push_back(runJobstream(quick));
  printPhase(phases.back());

  PhaseResult total;
  total.name = "TOTAL";
  for (const PhaseResult& p : phases) {
    total.wallSec += p.wallSec;
    total.simCycles += p.simCycles;
    total.events += p.events;
  }
  bg::bench::printRule();
  printPhase(total);

  if (jsonPath != nullptr) {
    bg::sim::Json j = bg::sim::Json::object();
    j.set("bench", "simperf");
    j.set("quick", quick);
    bg::sim::Json arr = bg::sim::Json::array();
    for (const PhaseResult& p : phases) arr.push(phaseJson(p));
    j.set("phases", std::move(arr));
    j.set("total", phaseJson(total));
    if (!bg::bench::maybeWriteJson(jsonPath, j)) return 1;
  }
  return 0;
}
