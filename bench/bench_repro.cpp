// Regenerates paper §III: cycle reproducibility.
//
//  1. Run-to-run: two freshly-built identical CNK machines execute the
//     same workload; their per-sample timings, logic-scan digests
//     (architectural-state hashes captured at a ladder of cycle
//     offsets — the simulator analogue of assembling scans taken one
//     cycle apart into a waveform), and completion cycles must be
//     IDENTICAL. The FWK baseline with different boot entropy (the
//     real-world run-to-run variation Linux cannot exclude) diverges.
//  2. Reset tolerance: a CNK node runs the job, performs the
//     reproducible-reset sequence (core rendezvous, cache flush, DDR
//     self-refresh, reset toggle, restart without the service node),
//     and re-runs the job: timings identical, and DRAM contents in the
//     persistent pool survive the reset.
//  3. Multichip: two chips coordinate their reboot over the global
//     barrier network; a packet injected a fixed delay after release
//     arrives at the same relative cycle on every trial.
//
// --json <path> writes the results machine-readably, including a
// double-run determinism digest: the full CNK witness (per-sample
// timings, logic-scan ladder, completion cycle) folded to one value
// for two independent runs — equal digests are the reproducibility
// receipt CI can diff across hosts and revisions.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/fwq.hpp"
#include "bench_util.hpp"
#include "hw/barrier_net.hpp"
#include "runtime/app.hpp"

namespace {

using namespace bg;

struct RunWitness {
  std::vector<std::uint64_t> samples;
  std::vector<std::uint64_t> scans;  // logic-scan ladder
  sim::Cycle doneAt = 0;
};

RunWitness witnessRun(rt::KernelKind kind, std::uint64_t entropy) {
  rt::ClusterConfig cfg;
  cfg.kernel = kind;
  cfg.fwk.entropy = entropy;
  rt::Cluster cluster(cfg);
  RunWitness w;
  if (!cluster.bootAll(100'000'000)) return w;

  apps::FwqParams fp;
  fp.samples = 60;
  kernel::JobSpec job;
  job.exe = apps::fwqImage(fp);
  cluster.attachSamples(0, 0, &w.samples);
  if (!cluster.loadJob(job)) return w;

  // Logic-scan ladder: snapshot architectural state at fixed cycles.
  const sim::Cycle base = cluster.engine().now();
  for (int i = 1; i <= 24; ++i) {
    cluster.engine().runUntil(base + static_cast<sim::Cycle>(i) * 1'000'000);
    w.scans.push_back(cluster.machine().scanHash());
    if (cluster.jobDone()) break;
  }
  cluster.run(2'000'000'000ULL);
  w.doneAt = cluster.engine().now();
  return w;
}

bool sameWitness(const RunWitness& a, const RunWitness& b) {
  return a.samples == b.samples && a.scans == b.scans &&
         a.doneAt == b.doneAt;
}

/// Fold a witness (every sample, every scan, the completion cycle)
/// into one digest; two reproducible runs must produce equal digests.
std::uint64_t witnessDigest(const RunWitness& w) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(w.samples.size());
  for (const std::uint64_t s : w.samples) mix(s);
  mix(w.scans.size());
  for (const std::uint64_t s : w.scans) mix(s);
  mix(w.doneAt);
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// Reset-tolerance experiment on one machine.
bool resetTolerance() {
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(100'000'000)) return false;
  auto* cnk = cluster.cnkOn(0);

  apps::FwqParams fp;
  fp.samples = 40;
  kernel::JobSpec job;
  job.exe = apps::fwqImage(fp);

  // Scribble a witness value into the persistent pool's DRAM.
  const hw::PAddr poolProbe =
      cluster.machine().node(0).mem().size() - (16ULL << 20);
  cluster.machine().node(0).mem().write64(poolProbe, 0xFEEDFACECAFED00DULL);

  std::vector<std::uint64_t> runA;
  cluster.attachSamples(0, 0, &runA);
  if (!cluster.loadJob(job) || !cluster.run(2'000'000'000ULL)) return false;

  // Reproducible reset: flush, self-refresh, toggle reset, restart.
  bool restarted = false;
  cnk->requestReproducibleReset([&] { restarted = true; });
  cluster.engine().runWhile([&] { return restarted; }, 10'000'000);
  if (!restarted) return false;

  const bool dramSurvived =
      cluster.machine().node(0).mem().read64(poolProbe) ==
      0xFEEDFACECAFED00DULL;

  std::vector<std::uint64_t> runB;
  cluster.attachSamples(0, 0, &runB);
  if (!cluster.loadJob(job) || !cluster.run(2'000'000'000ULL)) return false;

  std::printf("  reset tolerance: DRAM survived self-refresh: %s, "
              "re-run timings identical: %s (%zu samples)\n",
              dramSurvived ? "yes" : "NO",
              runA == runB ? "yes" : "NO", runA.size());
  return dramSurvived && runA == runB;
}

/// Multichip coordinated reboot: relative packet arrival is constant.
bool multichip(sim::Cycle* relOut) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(200'000'000)) return false;
  hw::BarrierNet& bar = cluster.machine().barrier();
  bar.setPersistentAcrossReset(true);
  bar.configureGroup(/*groupId=*/0x51C, /*members=*/2);

  std::vector<sim::Cycle> relativeArrivals;
  for (int trial = 0; trial < 3; ++trial) {
    // Both chips perform the reproducible reboot; the barrier network
    // stays active and configured across it (§III).
    int restarted = 0;
    for (int n = 0; n < 2; ++n) {
      cluster.cnkOn(n)->requestReproducibleReset([&] { ++restarted; });
    }
    cluster.engine().runWhile([&] { return restarted == 2; }, 10'000'000);

    // Rendezvous on the global barrier, then chip 0 injects a packet a
    // fixed delay after release; record its arrival relative to the
    // release cycle at chip 1.
    sim::Cycle releaseAt = 0;
    sim::Cycle arrivalAt = 0;
    cluster.machine().torus().setPacketHandler(
        1, [&](hw::TorusPacket&&) {
          arrivalAt = cluster.engine().now();
        });
    int released = 0;
    for (int n = 0; n < 2; ++n) {
      bar.arrive(0x51C, n, [&, n] {
        ++released;
        if (n == 0) {
          releaseAt = cluster.engine().now();
          cluster.engine().schedule(500, [&] {
            hw::TorusPacket p;
            p.srcNode = 0;
            p.dstNode = 1;
            p.tag = 0x77;
            p.payload.resize(64);
            cluster.machine().torus().sendPacket(std::move(p));
          });
        }
      });
    }
    cluster.engine().runWhile([&] { return arrivalAt != 0; }, 10'000'000);
    if (arrivalAt == 0) return false;
    relativeArrivals.push_back(arrivalAt - releaseAt);
  }
  bool allEqual = true;
  for (const sim::Cycle c : relativeArrivals) {
    if (c != relativeArrivals.front()) allEqual = false;
  }
  if (relOut != nullptr) *relOut = relativeArrivals.front();
  std::printf("  multichip: packet arrival %llu cycles after barrier "
              "release on every trial: %s\n",
              static_cast<unsigned long long>(relativeArrivals.front()),
              allEqual ? "yes" : "NO");
  return allEqual;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args("bench_repro",
                   "write the reproducibility witnesses as JSON");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  std::printf("Cycle reproducibility (paper SectionIII)\n\n");

  std::printf("Run-to-run reproducibility (two fresh machines, "
              "same workload):\n");
  // Double-run determinism digest: the same CNK configuration built
  // and driven twice; the full witnesses must fold to equal digests.
  const RunWitness cnkRun1 = witnessRun(rt::KernelKind::kCnk, 1);
  const RunWitness cnkRun2 = witnessRun(rt::KernelKind::kCnk, 2);
  const std::uint64_t digest1 = witnessDigest(cnkRun1);
  const std::uint64_t digest2 = witnessDigest(cnkRun2);
  const bool cnkIdentical = sameWitness(cnkRun1, cnkRun2);
  std::printf("  CNK: scans=%zu  identical samples/scans/completion: "
              "%s  digest=%s\n",
              cnkRun1.scans.size(), cnkIdentical ? "yes" : "NO",
              hex64(digest1).c_str());
  const RunWitness fwkRun1 = witnessRun(rt::KernelKind::kFwk, 1);
  const RunWitness fwkRun2 = witnessRun(rt::KernelKind::kFwk, 2);
  const bool fwkDiverges = !sameWitness(fwkRun1, fwkRun2);
  std::printf("  Linux(FWK), different boot entropy: diverges: %s\n",
              fwkDiverges ? "yes" : "NO (unexpectedly identical)");

  std::printf("\nReset tolerance (flush, DDR self-refresh, restart):\n");
  const bool resetOk = resetTolerance();

  std::printf("\nMultichip barrier-coordinated reproducible reboot:\n");
  sim::Cycle relArrival = 0;
  const bool multichipOk = multichip(&relArrival);

  std::printf("\npaper: CNK restarts identically from reset; the barrier "
              "network alignment lets one chip\ninject on exactly the same "
              "cycle relative to the other across reboots.\n");

  const bool allOk =
      cnkIdentical && digest1 == digest2 && fwkDiverges && resetOk &&
      multichipOk;
  if (args.json() != nullptr) {
    sim::Json j = sim::Json::object();
    j.set("bench", "repro");
    sim::Json d = sim::Json::object();
    d.set("run1", hex64(digest1));
    d.set("run2", hex64(digest2));
    d.set("match", digest1 == digest2);
    d.set("samples", cnkRun1.samples.size());
    d.set("scans", cnkRun1.scans.size());
    d.set("done_at", cnkRun1.doneAt);
    j.set("determinism_digest", std::move(d));
    j.set("cnk_run_to_run_identical", cnkIdentical);
    j.set("fwk_entropy_diverges", fwkDiverges);
    j.set("reset_tolerance", resetOk);
    sim::Json m = sim::Json::object();
    m.set("stable", multichipOk);
    m.set("relative_arrival_cycles", relArrival);
    j.set("multichip", std::move(m));
    j.set("pass", allOk);
    if (!bench::maybeWriteJson(args.json(), j)) return 1;
  }
  return allOk ? 0 : 1;
}
