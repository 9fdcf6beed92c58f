// Regenerates paper Fig 2 / §IV-A / §VII-A as a measurement: the
// function-shipped I/O path end-to-end, the 1:1 ioproxy mapping, and
// the reduction in filesystem clients ("up to two orders of magnitude"
// — every compute process funnels through its pset's single I/O node).
//
// Phase 2 measures the reliability layer (PR 3): the same checkpoint
// kernel runs with a cold spare I/O node, the CIOD is fail-stopped
// mid-run, and the bench plays service node — it watches for the
// compute kernels' timeout-storm declaration and re-homes the pset to
// the spare. Reported: detection latency, time to completion after the
// crash, overhead vs. the fault-free run, and whether every rank's
// results (fd numbers, bytes read back) match the fault-free run
// exactly. --json emits everything plus the CIOD/fship counters for
// bench/diff_runs.py.
#include <cstdio>
#include <functional>
#include <vector>

#include "apps/io_kernel.hpp"
#include "bench_util.hpp"
#include "runtime/app.hpp"

namespace {
using namespace bg;

// One failover-phase run; crashAt == 0 means fault-free control. Every
// cycle here counts from job load.
struct FailoverRun {
  bool ok = false;
  sim::Cycle elapsed = 0;
  sim::Cycle detectCycle = 0;  // first timeout-storm declaration seen
  std::vector<std::vector<std::uint64_t>> samples;
  cnk::FshipStats fship;
  io::CiodStats ciod;
};

FailoverRun runFailoverPhase(int computeNodes, int procsPerNode,
                             const apps::IoKernelParams& ip,
                             sim::Cycle crashAt) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = computeNodes;
  cfg.ioNodes = 1;
  cfg.computeNodesPerIoNode = computeNodes;
  cfg.spareIoNodes = 1;
  // Tight watchdogs so the storm declares quickly; a long grace parks
  // in-flight ops for the failover instead of failing them with EIO.
  cfg.cnk.fship.requestTimeout = 500'000;
  cfg.cnk.fship.maxTimeout = 2'000'000;
  cfg.cnk.fship.maxRetries = 3;
  cfg.cnk.fship.failoverGrace = 200'000'000;

  FailoverRun r;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(600'000'000)) return r;

  kernel::JobSpec job;
  job.processes = procsPerNode;
  job.exe = apps::ioKernelImage(ip);

  const int ranks = computeNodes * procsPerNode;
  r.samples.resize(static_cast<std::size_t>(ranks));
  for (int rank = 0; rank < ranks; ++rank) {
    cluster.attachSamples(rank, 0, &r.samples[static_cast<std::size_t>(rank)]);
  }

  sim::Engine& eng = cluster.engine();
  const sim::Cycle start = eng.now();
  bool failedOver = false;
  std::function<void()> watchStorm = [&] {
    if (failedOver) return;
    bool dead = false;
    for (int n = 0; n < computeNodes; ++n) {
      if (auto* c = cluster.cnkOn(n); c != nullptr && c->fship().ioNodeDead()) {
        dead = true;
      }
    }
    if (dead) {
      // The bench plays service node: react to the RAS storm by
      // re-homing the pset onto the cold spare.
      r.detectCycle = eng.now() - start;
      cluster.failoverIoNode(0);
      failedOver = true;
      return;
    }
    eng.schedule(50'000, watchStorm);
  };
  if (crashAt != 0) {
    eng.scheduleAt(start + crashAt, [&cluster] { cluster.ciod(0).crash(); });
    eng.scheduleAt(start + crashAt + 50'000, watchStorm);
  }

  if (!cluster.loadJob(job) || !cluster.run(8'000'000'000ULL)) return r;
  r.elapsed = eng.now() - start;
  r.fship = cluster.fshipTotals();
  r.ciod = cluster.ciodTotals();
  r.ok = true;
  return r;
}

/// Result-equality oracle: fd numbers (sample 0) and verification
/// read-back bytes (sample 2) must match the fault-free run; sample 1
/// is elapsed cycles and legitimately differs under faults.
bool sameResults(const FailoverRun& a, const FailoverRun& b) {
  if (a.samples.size() != b.samples.size()) return false;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    if (a.samples[i].size() < 3 || b.samples[i].size() < 3) return false;
    if (a.samples[i][0] != b.samples[i][0]) return false;
    if (a.samples[i][2] != b.samples[i][2]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args("bench_io_offload",
                   "write the offload and failover counters as JSON");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  const int computeNodes = 8;
  const int procsPerNode = 4;  // VN mode

  rt::ClusterConfig cfg;
  cfg.computeNodes = computeNodes;
  cfg.ioNodes = 1;
  cfg.computeNodesPerIoNode = computeNodes;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(600'000'000)) {
    std::fprintf(stderr, "boot failed\n");
    return 1;
  }

  apps::IoKernelParams ip;
  ip.chunks = 6;
  ip.chunkBytes = 32 << 10;
  kernel::JobSpec job;
  job.processes = procsPerNode;
  job.exe = apps::ioKernelImage(ip);

  const int ranks = computeNodes * procsPerNode;
  std::vector<std::vector<std::uint64_t>> samples(ranks);
  for (int r = 0; r < ranks; ++r) cluster.attachSamples(r, 0, &samples[r]);

  const sim::Cycle start = cluster.engine().now();
  if (!cluster.loadJob(job) || !cluster.run(8'000'000'000ULL)) {
    std::fprintf(stderr, "run failed\n");
    return 1;
  }
  const sim::Cycle elapsed = cluster.engine().now() - start;

  int opened = 0;
  std::uint64_t readBack = 0;
  for (const auto& s : samples) {
    if (s.size() >= 3) {
      if (static_cast<std::int64_t>(s[0]) >= 0) ++opened;
      readBack += s[2];
    }
  }

  const io::Ciod& ciod = cluster.ciod(0);
  const io::CiodStats& st = ciod.stats();
  const cnk::FshipStats fs = cluster.fshipTotals();
  const std::uint64_t totalWritten =
      static_cast<std::uint64_t>(ranks) * ip.chunks * ip.chunkBytes;

  std::printf("Function-shipped I/O offload (paper Fig 2, SectionIV-A)\n");
  bg::bench::printRule();
  std::printf("compute processes              %12d\n", ranks);
  std::printf("ranks with successful open()   %12d\n", opened);
  std::printf("ioproxies at CIOD (1:1)        %12zu\n", ciod.proxyCount());
  std::printf("dedicated proxy threads        %12zu\n",
              ciod.proxyThreadCount());
  std::printf("fship requests served          %12llu\n",
              static_cast<unsigned long long>(st.requests));
  std::printf("protocol errors                %12llu\n",
              static_cast<unsigned long long>(st.errors));
  std::printf("retransmits / timeouts         %12llu / %llu\n",
              static_cast<unsigned long long>(fs.retransmits),
              static_cast<unsigned long long>(fs.timeouts));
  std::printf("bytes written (app)            %12llu\n",
              static_cast<unsigned long long>(totalWritten));
  std::printf("bytes read back (verify)       %12llu\n",
              static_cast<unsigned long long>(readBack));
  std::printf("filesystem clients seen by FS  %12d (vs %d app processes"
              " -> %.0fx reduction)\n",
              cluster.machine().numIoNodes(), ranks,
              static_cast<double>(ranks) /
                  cluster.machine().numIoNodes());
  std::printf("aggregate write bandwidth      %9.1f MB/s over %.2f ms\n",
              static_cast<double>(totalWritten) / 1e6 /
                  sim::cyclesToSec(elapsed),
              sim::cyclesToUs(elapsed) / 1000.0);

  // --- Phase 2: CIOD crash + failover to a cold spare ------------------
  apps::IoKernelParams fp;
  fp.chunks = 3;
  fp.chunkBytes = 4 << 10;
  const int fNodes = 4;
  const int fProcs = 2;

  const FailoverRun control = runFailoverPhase(fNodes, fProcs, fp, 0);
  if (!control.ok) {
    std::fprintf(stderr, "failover control run failed\n");
    return 1;
  }
  const sim::Cycle crashAt = control.elapsed / 3;
  const FailoverRun faulted = runFailoverPhase(fNodes, fProcs, fp, crashAt);
  if (!faulted.ok) {
    std::fprintf(stderr, "failover run did not complete\n");
    return 1;
  }
  const bool match = sameResults(control, faulted);
  const sim::Cycle overhead =
      faulted.elapsed > control.elapsed ? faulted.elapsed - control.elapsed
                                        : 0;

  std::printf("\nCIOD crash + failover to cold spare (PR 3 reliability)\n");
  bg::bench::printRule();
  std::printf("CIOD fail-stop after job load  %12llu cycles\n",
              static_cast<unsigned long long>(crashAt));
  std::printf("timeout-storm detect latency   %12llu cycles\n",
              static_cast<unsigned long long>(faulted.detectCycle - crashAt));
  std::printf("completion after crash         %12llu cycles\n",
              static_cast<unsigned long long>(faulted.elapsed - crashAt));
  std::printf("overhead vs fault-free run     %12llu cycles (%.1f%%)\n",
              static_cast<unsigned long long>(overhead),
              100.0 * static_cast<double>(overhead) /
                  static_cast<double>(control.elapsed));
  std::printf("ioproxy restores on spare      %12llu\n",
              static_cast<unsigned long long>(faulted.ciod.restores));
  std::printf("retransmits / replay-served    %12llu / %llu\n",
              static_cast<unsigned long long>(faulted.fship.retransmits),
              static_cast<unsigned long long>(faulted.ciod.replays));
  std::printf("results identical to fault-free %11s\n",
              match ? "yes" : "NO");

  std::printf("\npaper: the offload keeps POSIX semantics on the compute "
              "node while the I/O node's Linux\nprovides the filesystem; "
              "client count drops by the pset fan-in.\n");

  if (args.json() != nullptr) {
    sim::Json j = sim::Json::object();
    j.set("bench", "io_offload");
    j.set("processes", static_cast<std::int64_t>(ranks));
    j.set("opened", static_cast<std::int64_t>(opened));
    j.set("bytes_written", totalWritten);
    j.set("bytes_read_back", readBack);
    j.set("elapsed_cycles", elapsed);
    j.set("bandwidth_mb_s", static_cast<double>(totalWritten) / 1e6 /
                                sim::cyclesToSec(elapsed));
    j.set("ciod", bench::ciodJson(st));
    j.set("fship", bench::fshipJson(fs));
    sim::Json f = sim::Json::object();
    f.set("crash_cycle", crashAt);
    f.set("detect_cycles", faulted.detectCycle - crashAt);
    f.set("completion_after_crash", faulted.elapsed - crashAt);
    f.set("overhead_cycles", overhead);
    f.set("overhead_pct", 100.0 * static_cast<double>(overhead) /
                              static_cast<double>(control.elapsed));
    f.set("results_match", match);
    f.set("ciod", bench::ciodJson(faulted.ciod));
    f.set("fship", bench::fshipJson(faulted.fship));
    j.set("failover", std::move(f));
    if (!bench::maybeWriteJson(args.json(), j)) return 1;
  }
  return match ? 0 : 1;
}
