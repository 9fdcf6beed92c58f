// Front-door submission benchmark: a deterministic swarm of 1000+
// concurrent clients drives the versioned RPC protocol (SUBMIT /
// CANCEL / QUERY / STATS) at the service node's front door over a
// faultable collective link. The front door batches accepted submits
// into the scheduler, bounces overload with SERVER_BUSY + retry-after,
// and dedups retries/duplicates through per-client replay caches.
// Reports submits/s, ack-latency percentiles (p50/p99), rejection
// rate, and a determinism hash over the front door's admission digest
// plus the scheduler's schedule hash; every invocation runs the swarm
// twice and fails on a hash mismatch. With --crashes N the control
// plane fail-stops mid-swarm and the in-flight table recovers from
// persistent memory (no acknowledged submission may be lost).
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "frontdoor/frontdoor.hpp"
#include "frontdoor/swarm.hpp"
#include "runtime/app.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace {

using namespace bg;

struct FdParams {
  int clients = 1200;
  int submits = 2;  // per client
  std::uint64_t seed = 42;
  std::uint32_t bursts = 4;
  int nodes = 8;
  int fwkNodes = 2;
  std::size_t maxQueue = 512;
  // Link fault rates on the front-door net (client uplinks + server).
  double dropRate = 0;
  double corruptRate = 0;
  double delayRate = 0;
  double dupRate = 0;
  // Client-injected behavior.
  double forcedDups = 0;  // fraction of submits sent twice
  double cancelRate = 0;
  double queryRate = 0;
  // Control-plane fail-stops.
  int crashes = 0;
  sim::Cycle restartDelay = 250'000;
};

struct FdResult {
  bool drained = false;
  fd::FrontDoorStats door;
  fd::Swarm::Totals swarm;
  svc::SvcMetrics metrics;
  std::uint64_t fdDigest = 0;
  std::uint64_t determinismHash = 0;
  std::uint64_t faultDraws = 0;
  hw::LinkFaultStats link;
};

FdResult runSwarm(const FdParams& p) {
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
  // Write-through checkpointing only matters when the control plane
  // can actually crash; otherwise skip the per-accept save cost.
  scfg.checkpointEveryPumps = p.crashes > 0 ? 1 : 0;
  svc::ServiceHost host(cluster, scfg);

  // The one executable every swarm submit references, standing in for
  // a shared-filesystem binary: ~290K cycles of compute.
  {
    vm::ProgramBuilder b("fdwork");
    const auto top = b.loopBegin(16, 24);
    b.compute(12'000);
    b.loopEnd(16, top);
    b.halt(0);
    host.store().registerImage(
        kernel::ElfImage::makeExecutable("fdwork", std::move(b).build()));
  }

  // The front-door net is its own collective tree (submission traffic
  // does not contend with the compute-side I/O path), with one
  // faultable uplink per client.
  hw::CollectiveNet fdnet(cluster.engine());
  hw::LinkFaultModel faults(p.seed, "fd.link");
  hw::LinkFaultRates rates;
  rates.dropRate = p.dropRate;
  rates.corruptRate = p.corruptRate;
  rates.delayRate = p.delayRate;
  rates.duplicateRate = p.dupRate;
  faults.setDefaultRates(rates);
  fdnet.setFaultModel(&faults);

  fd::FrontDoorConfig fcfg;
  fcfg.netId = 0;
  fcfg.maxQueueDepth = p.maxQueue;
  fcfg.persist = p.crashes > 0;
  fd::FrontDoor door(cluster.engine(), host, fdnet, fcfg);
  door.attach();

  fd::SwarmParams sp;
  sp.clients = static_cast<std::uint32_t>(p.clients);
  sp.submitsPerClient = static_cast<std::uint32_t>(p.submits);
  sp.seed = p.seed;
  sp.serverNetId = 0;
  sp.bursts = p.bursts;
  sp.forcedDupRate = p.forcedDups;
  sp.cancelRate = p.cancelRate;
  sp.queryRate = p.queryRate;
  // A burst of this size genuinely overloads 8 nodes; give clients
  // enough linear-backoff budget to ride the backlog out rather than
  // abandon (the rejection-rate metric still shows the backpressure).
  sp.clientMaxBusyRetries = 24;
  fd::Swarm swarm(cluster.engine(), fdnet, sp);

  // Seeded control-plane fail-stops inside the swarm window.
  sim::Rng crng(p.seed, "fd.crash");
  for (int c = 0; c < p.crashes; ++c) {
    const sim::Cycle at = 200'000 + crng.nextBelow(swarm.horizonCycles());
    host.scheduleCrashRestart(at, p.restartDelay);
  }

  host.start();
  swarm.start();

  FdResult r;
  r.drained = cluster.engine().runWhile(
      [&] {
        return swarm.quiescent() && door.batchedCount() == 0 &&
               host.drained();
      },
      4'000'000'000ULL);
  r.door = door.stats();
  r.swarm = swarm.totals();
  r.metrics = host.metrics();
  r.fdDigest = door.digest();
  r.faultDraws = faults.rngDraws();
  r.link = faults.stats();
  sim::Fnv1a h;
  h.mix(r.fdDigest);
  h.mix(r.metrics.scheduleHash);
  r.determinismHash = h.digest();
  return r;
}

void printResult(const char* title, const FdParams& p, const FdResult& r) {
  const fd::FrontDoorStats& d = r.door;
  const fd::Swarm::Totals& t = r.swarm;
  const double subsPerSec =
      r.metrics.elapsedSeconds > 0
          ? static_cast<double>(t.acked) / r.metrics.elapsedSeconds
          : 0;
  std::printf("\n%s\n", title);
  bg::bench::printRule();
  std::printf("clients: %d x %d submits; sent %llu, acked %llu, "
              "busy-retries %llu, abandoned %llu (busy %llu)\n",
              p.clients, p.submits,
              static_cast<unsigned long long>(t.submitsSent),
              static_cast<unsigned long long>(t.acked),
              static_cast<unsigned long long>(t.busyRetries),
              static_cast<unsigned long long>(t.abandoned),
              static_cast<unsigned long long>(t.busyAbandoned));
  std::printf("throughput: %.1f acked submits/sec over %.3f simulated sec\n",
              subsPerSec, r.metrics.elapsedSeconds);
  std::printf("ack latency: p50 %llu, p99 %llu, max %llu cycles "
              "(%zu samples)\n",
              static_cast<unsigned long long>(
                  bench::percentile(t.latencies, 50)),
              static_cast<unsigned long long>(
                  bench::percentile(t.latencies, 99)),
              static_cast<unsigned long long>(
                  bench::percentile(t.latencies, 100)),
              t.latencies.size());
  std::printf("admission: %llu accepted, %llu rejected busy (%.2f%%), "
              "max batch %llu, %llu flushes -> %llu jobs\n",
              static_cast<unsigned long long>(d.accepted),
              static_cast<unsigned long long>(d.rejected),
              d.accepted + d.rejected > 0
                  ? bench::pct(d.rejected, d.accepted + d.rejected)
                  : 0.0,
              static_cast<unsigned long long>(d.maxBatchSeen),
              static_cast<unsigned long long>(d.flushes),
              static_cast<unsigned long long>(d.flushedJobs));
  std::printf("exactly-once: %llu replays, %llu silent dups, "
              "%llu stale drops, %llu corrupt frames, "
              "%llu dropped while down\n",
              static_cast<unsigned long long>(d.replays),
              static_cast<unsigned long long>(d.dupSilent),
              static_cast<unsigned long long>(d.staleDrops),
              static_cast<unsigned long long>(d.corrupt),
              static_cast<unsigned long long>(d.droppedWhileDown));
  std::printf("cancels: %llu batched, %llu queued, %llu too late; "
              "queries %llu\n",
              static_cast<unsigned long long>(d.cancelsBatched),
              static_cast<unsigned long long>(d.cancelsQueued),
              static_cast<unsigned long long>(d.cancelsTooLate),
              static_cast<unsigned long long>(d.queries));
  std::printf("svc: %llu submitted, %llu completed, %llu cancelled, "
              "%llu failed; %llu crashes, %llu restarts, "
              "%llu resubmitted after restart\n",
              static_cast<unsigned long long>(r.metrics.jobsSubmitted),
              static_cast<unsigned long long>(r.metrics.jobsCompleted),
              static_cast<unsigned long long>(r.metrics.jobsCancelled),
              static_cast<unsigned long long>(r.metrics.jobsFailed),
              static_cast<unsigned long long>(r.metrics.serviceCrashes),
              static_cast<unsigned long long>(d.restarts),
              static_cast<unsigned long long>(d.resubmitted));
  std::printf("link faults: %llu dropped, %llu corrupted, %llu delayed, "
              "%llu duplicated (%llu rng draws)\n",
              static_cast<unsigned long long>(r.link.dropped),
              static_cast<unsigned long long>(r.link.corrupted),
              static_cast<unsigned long long>(r.link.delayed),
              static_cast<unsigned long long>(r.link.duplicated),
              static_cast<unsigned long long>(r.faultDraws));
  std::printf("determinism hash: %016llx (fd digest %016llx, "
              "schedule %016llx)\n",
              static_cast<unsigned long long>(r.determinismHash),
              static_cast<unsigned long long>(r.fdDigest),
              static_cast<unsigned long long>(r.metrics.scheduleHash));
}

/// Crash-free bookkeeping identities; with crashes, resubmission can
/// legitimately flush a ticket twice, so they only hold at zero.
bool checkInvariants(const FdParams& p, const FdResult& r) {
  if (p.crashes > 0) return true;
  bool ok = true;
  if (r.door.accepted != r.door.flushedJobs + r.door.cancelsBatched) {
    std::fprintf(stderr,
                 "invariant failed: accepted %llu != flushed %llu + "
                 "cancelled-in-batch %llu\n",
                 static_cast<unsigned long long>(r.door.accepted),
                 static_cast<unsigned long long>(r.door.flushedJobs),
                 static_cast<unsigned long long>(r.door.cancelsBatched));
    ok = false;
  }
  if (r.metrics.jobsSubmitted != r.door.flushedJobs) {
    std::fprintf(stderr,
                 "invariant failed: svc submitted %llu != flushed %llu\n",
                 static_cast<unsigned long long>(r.metrics.jobsSubmitted),
                 static_cast<unsigned long long>(r.door.flushedJobs));
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  FdParams p;
  bool quick = false;
  bench::Args args("bench_frontdoor", "write the swarm results as JSON");
  args.value("--clients", &p.clients, "N", "concurrent clients")
      .value("--submits", &p.submits, "N", "submits per client")
      .value("--seed", &p.seed, "S", "swarm and fault seed")
      .value("--bursts", &p.bursts, "N", "arrival bursts")
      .value("--max-queue", &p.maxQueue, "N", "admission queue bound")
      .value("--drop-rate", &p.dropRate, "P", "link frame drop rate")
      .value("--corrupt-rate", &p.corruptRate, "P", "link corruption rate")
      .value("--delay-rate", &p.delayRate, "P", "link delay rate")
      .value("--dup-rate", &p.dupRate, "P", "link duplication rate")
      .value("--forced-dups", &p.forcedDups, "P", "submit frames sent twice")
      .value("--cancel-rate", &p.cancelRate, "P", "CANCEL after an ack")
      .value("--query-rate", &p.queryRate, "P", "QUERY after an ack")
      .value("--crashes", &p.crashes, "N", "service-node fail-stops")
      .value("--restart-delay", &p.restartDelay, "CYCLES",
             "outage length per crash")
      .flag("--quick", &quick, "1000 clients x 1 submit unless set (CI smoke)");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  if (quick && !args.given("--clients")) p.clients = 1000;
  if (quick && !args.given("--submits")) p.submits = 1;

  std::printf("front-door benchmark: %d clients x %d submits, %u bursts, "
              "max queue %zu, seed=%llu, faults drop=%.3f corrupt=%.3f "
              "delay=%.3f dup=%.3f forced-dups=%.3f, %d svc crashes\n",
              p.clients, p.submits, p.bursts, p.maxQueue,
              static_cast<unsigned long long>(p.seed), p.dropRate,
              p.corruptRate, p.delayRate, p.dupRate, p.forcedDups,
              p.crashes);

  const FdResult run1 = runSwarm(p);
  if (!run1.drained) {
    std::fprintf(stderr, "swarm did not drain\n");
    return 1;
  }
  printResult("run 1", p, run1);
  const bool invariantsOk = checkInvariants(p, run1);

  // Determinism witness: replay the identical swarm.
  const FdResult run2 = runSwarm(p);
  const bool match = run2.determinismHash == run1.determinismHash;
  std::printf("\nreplay determinism hash: %016llx (%s)\n",
              static_cast<unsigned long long>(run2.determinismHash),
              match ? "MATCH" : "MISMATCH");

  if (args.json() != nullptr) {
    const fd::Swarm::Totals& t = run1.swarm;
    sim::Json j = sim::Json::object();
    j.set("bench", "frontdoor");
    j.set("clients", static_cast<std::int64_t>(p.clients));
    j.set("submits_per_client", static_cast<std::int64_t>(p.submits));
    j.set("seed", p.seed);
    j.set("bursts", static_cast<std::int64_t>(p.bursts));
    j.set("max_queue", static_cast<std::uint64_t>(p.maxQueue));
    j.set("crashes", static_cast<std::int64_t>(p.crashes));
    sim::Json fi = sim::Json::object();
    fi.set("drop_rate", p.dropRate);
    fi.set("corrupt_rate", p.corruptRate);
    fi.set("delay_rate", p.delayRate);
    fi.set("dup_rate", p.dupRate);
    fi.set("forced_dups", p.forcedDups);
    fi.set("cancel_rate", p.cancelRate);
    fi.set("query_rate", p.queryRate);
    j.set("fault_injection", std::move(fi));

    sim::Json m = sim::Json::object();
    m.set("submits_sent", t.submitsSent);
    m.set("acked", t.acked);
    m.set("acked_per_sec",
          run1.metrics.elapsedSeconds > 0
              ? static_cast<double>(t.acked) / run1.metrics.elapsedSeconds
              : 0.0);
    m.set("ack_p50_cycles", bench::percentile(t.latencies, 50));
    m.set("ack_p99_cycles", bench::percentile(t.latencies, 99));
    m.set("ack_latency", bench::statsToJson(bench::computeStats(t.latencies)));
    m.set("accepted", run1.door.accepted);
    m.set("rejected_busy", run1.door.rejected);
    m.set("rejection_rate_pct",
          run1.door.accepted + run1.door.rejected > 0
              ? bench::pct(run1.door.rejected,
                           run1.door.accepted + run1.door.rejected)
              : 0.0);
    m.set("busy_retries", t.busyRetries);
    m.set("abandoned", t.abandoned + t.busyAbandoned);
    m.set("replays", run1.door.replays);
    m.set("dup_silent", run1.door.dupSilent);
    m.set("stale_drops", run1.door.staleDrops);
    m.set("corrupt_frames", run1.door.corrupt);
    m.set("flushes", run1.door.flushes);
    m.set("flushed_jobs", run1.door.flushedJobs);
    m.set("max_batch", run1.door.maxBatchSeen);
    m.set("cancels_batched", run1.door.cancelsBatched);
    m.set("cancels_queued", run1.door.cancelsQueued);
    m.set("cancels_too_late", run1.door.cancelsTooLate);
    m.set("fd_restarts", run1.door.restarts);
    m.set("resubmitted", run1.door.resubmitted);
    j.set("frontdoor", std::move(m));

    j.set("svc", run1.metrics.toJson());
    j.set("determinism_hash", run1.determinismHash);
    j.set("fd_digest", run1.fdDigest);
    j.set("replay_hash_match", match);
    j.set("invariants_ok", invariantsOk);
    // Serializer probe: a u64 above INT64_MAX must round-trip through
    // the JSON layer unsigned (diff_runs.py reads it back).
    j.set("u64_probe", static_cast<std::uint64_t>(0xFFFFFFFFFFFFFFFFULL));
    if (!bench::maybeWriteJson(args.json(), j)) return 1;
  }
  return match && invariantsOk ? 0 : 1;
}
