// Application checkpoint/restart trajectory: what a ckpt_save costs
// and what a restore buys.
//
// Phase 1 runs an app that checkpoints K times mid-computation and
// measures per-commit latency (kCkptBegin -> kCkptCommit in the RAS
// stream: rendezvous + image build + two-phase ship to the I/O node)
// plus the committed image size. Each round dirties one more sparse
// granule of heap, so successive images grow and the latency column
// is a real distribution (p50 < p99), not K copies of one number.
//
// Phase 2 measures the requeue economics the checkpoint-then-preempt
// scheduler banks on: the same two-phase app is re-run from scratch
// and then restored from its committed image, and the difference is
// the compute the checkpoint saved.
//
// Both phases run twice and must produce bit-identical digests —
// checkpointing is part of the deterministic machine, not an observer.
// --quick shrinks the workload for CI; --json emits everything. Any
// other argument, or --json without a path, prints usage and exits 2.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cnk/cnk_kernel.hpp"
#include "kernel/syscalls.hpp"
#include "runtime/app.hpp"
#include "sim/hash.hpp"
#include "vm/builder.hpp"

namespace {
using namespace bg;

std::int64_t sysNum(kernel::Sys s) { return static_cast<std::int64_t>(s); }

/// K rounds of (compute, dirty a fresh heap granule, ckpt_save): the
/// commit-latency workload. The image serializer elides all-zero 64KB
/// granules, so stamping one new granule per round grows the shipped
/// image round over round — without that, every commit ships an
/// identical image and the "distribution" collapses to p50 == p99.
vm::Program ckptLoopApp(std::int64_t rounds, std::uint64_t computeCycles) {
  constexpr std::int64_t kGranule = 64 << 10;  // ckpt::kChunkBytes
  vm::ProgramBuilder b("ckpt-loop");
  // Grow brk so the granule cursor stays inside the valid heap (the
  // main-thread guard follows brk; stores above it would DAC-trap).
  b.li(1, 0);
  b.syscall(sysNum(kernel::Sys::kBrk));
  b.mov(22, 0);  // r22 = granule cursor (starts at the old brk)
  b.mov(1, 0);
  b.addi(1, 1, (rounds + 1) * kGranule);
  b.syscall(sysNum(kernel::Sys::kBrk));
  b.li(23, 0x5a5a5a5a);  // non-zero stamp: keeps granules un-elidable
  const auto top = b.loopBegin(21, rounds);
  b.compute(computeCycles);
  b.store(22, 23, 0);
  b.addi(22, 22, kGranule);
  b.syscall(sysNum(kernel::Sys::kCkptSave));
  b.loopEnd(21, top);
  b.li(vm::kArg0, 0);
  b.syscall(sysNum(kernel::Sys::kExit));
  return std::move(b).build();
}

/// Heavy phase 1, checkpoint, light phase 2: the resume-economics
/// workload (restore skips all of phase 1).
vm::Program twoPhaseApp(std::int64_t reps1, std::int64_t reps2,
                        std::uint64_t computeCycles) {
  vm::ProgramBuilder b("ckpt-two-phase");
  auto top = b.loopBegin(21, reps1);
  b.compute(computeCycles);
  b.loopEnd(21, top);
  b.syscall(sysNum(kernel::Sys::kCkptSave));
  top = b.loopBegin(21, reps2);
  b.compute(computeCycles);
  b.loopEnd(21, top);
  b.li(vm::kArg0, 0);
  b.syscall(sysNum(kernel::Sys::kExit));
  return std::move(b).build();
}

bool runJob(rt::Cluster& cluster, vm::Program program, bool restore) {
  cluster.cnkOn(0)->unloadJob();
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("bench", std::move(program));
  job.restore = restore;
  if (!cluster.loadJob(job)) return false;
  return cluster.run(2'000'000'000ULL);
}

struct CommitPhase {
  bool ok = false;
  std::vector<std::uint64_t> latencies;  // kCkptBegin -> kCkptCommit
  std::uint64_t imageBytes = 0;
  std::uint64_t commits = 0;
  std::uint64_t failures = 0;
};

CommitPhase runCommitPhase(int rounds, std::uint64_t computeCycles) {
  CommitPhase out;
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(600'000'000)) return out;
  if (!runJob(cluster, ckptLoopApp(rounds, computeCycles), false)) return out;
  const cnk::CnkKernel* k = cluster.cnkOn(0);
  sim::Cycle begin = 0;
  bool open = false;
  for (const auto& e : k->rasLog()) {
    if (e.code == kernel::RasEvent::Code::kCkptBegin) {
      begin = e.cycle;
      open = true;
    } else if (e.code == kernel::RasEvent::Code::kCkptCommit && open) {
      out.latencies.push_back(e.cycle - begin);
      open = false;
    }
  }
  out.imageBytes = k->lastCkptBytes();
  out.commits = k->ckptCommits();
  out.failures = k->ckptFailures();
  out.ok = out.commits == static_cast<std::uint64_t>(rounds) &&
           out.latencies.size() == out.commits;
  return out;
}

struct ResumePhase {
  bool ok = false;
  sim::Cycle scratchCycles = 0;  // reload from scratch, full re-run
  sim::Cycle resumedCycles = 0;  // reload in restore mode
  std::uint64_t restores = 0;
};

ResumePhase runResumePhase(std::int64_t reps1, std::int64_t reps2,
                           std::uint64_t computeCycles) {
  ResumePhase out;
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(600'000'000)) return out;
  // Seed run: commits the image at the phase boundary.
  if (!runJob(cluster, twoPhaseApp(reps1, reps2, computeCycles), false)) {
    return out;
  }
  // Scratch requeue: the whole job again.
  sim::Cycle t0 = cluster.engine().now();
  if (!runJob(cluster, twoPhaseApp(reps1, reps2, computeCycles), false)) {
    return out;
  }
  out.scratchCycles = cluster.engine().now() - t0;
  // Checkpointed requeue: restore skips phase 1.
  t0 = cluster.engine().now();
  if (!runJob(cluster, twoPhaseApp(reps1, reps2, computeCycles), true)) {
    return out;
  }
  out.resumedCycles = cluster.engine().now() - t0;
  out.restores = cluster.cnkOn(0)->ckptRestores();
  out.ok = out.restores >= 1 && out.resumedCycles < out.scratchCycles;
  return out;
}

std::uint64_t digestOf(const CommitPhase& c, const ResumePhase& r) {
  sim::Fnv1a h;
  for (std::uint64_t v : c.latencies) h.mix(v);
  h.mix(c.imageBytes);
  h.mix(c.commits);
  h.mix(c.failures);
  h.mix(r.scratchCycles);
  h.mix(r.resumedCycles);
  h.mix(r.restores);
  return h.digest();
}

constexpr char kUsage[] =
    "usage: bench_ckpt [--quick] [--json <path>] [--help]\n"
    "  --quick        fewer commits and shorter phases (CI smoke)\n"
    "  --json <path>  write the trajectory as JSON\n"
    "  --help         print this message and exit\n";

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* jsonPath = nullptr;
  if (const int rc = bg::bench::parseFlagArgs(
          argc, argv, "bench_ckpt", kUsage, {{"--quick", &quick}}, &jsonPath);
      rc >= 0) {
    return rc;
  }
  const int rounds = quick ? 16 : 40;
  const std::uint64_t computeCycles = 20'000;
  const std::int64_t reps1 = quick ? 120 : 400;
  const std::int64_t reps2 = quick ? 30 : 100;

  std::printf("bench_ckpt: %d commits, resume economics %lld+%lld x %llu "
              "cycles%s\n",
              rounds, static_cast<long long>(reps1),
              static_cast<long long>(reps2),
              static_cast<unsigned long long>(computeCycles),
              quick ? " (quick)" : "");
  bg::bench::printRule();

  const CommitPhase commit = runCommitPhase(rounds, computeCycles);
  const ResumePhase resume = runResumePhase(reps1, reps2, computeCycles);
  if (!commit.ok || !resume.ok) {
    std::fprintf(stderr, "bench_ckpt: phase failed (commit ok=%d resume "
                 "ok=%d)\n", commit.ok ? 1 : 0, resume.ok ? 1 : 0);
    return 1;
  }

  const bg::bench::Stats st = bg::bench::computeStats(commit.latencies);
  const std::uint64_t p50 = bg::bench::percentile(commit.latencies, 50);
  const std::uint64_t p99 = bg::bench::percentile(commit.latencies, 99);
  std::printf("commit latency (cycles): mean %.0f  p50 %llu  p99 %llu  "
              "max %llu  (n=%llu)\n",
              st.mean, static_cast<unsigned long long>(p50),
              static_cast<unsigned long long>(p99),
              static_cast<unsigned long long>(st.max),
              static_cast<unsigned long long>(st.n));
  std::printf("image size (final commit): %llu bytes\n",
              static_cast<unsigned long long>(commit.imageBytes));
  const std::uint64_t saved = resume.scratchCycles - resume.resumedCycles;
  std::printf("requeue: scratch %llu cycles, resumed %llu cycles -> "
              "%llu saved (%.1f%%)\n",
              static_cast<unsigned long long>(resume.scratchCycles),
              static_cast<unsigned long long>(resume.resumedCycles),
              static_cast<unsigned long long>(saved),
              bg::bench::pct(saved, resume.scratchCycles));

  // Determinism witness: the whole trajectory replayed from scratch.
  const CommitPhase commit2 = runCommitPhase(rounds, computeCycles);
  const ResumePhase resume2 = runResumePhase(reps1, reps2, computeCycles);
  const std::uint64_t d1 = digestOf(commit, resume);
  const std::uint64_t d2 = digestOf(commit2, resume2);
  std::printf("determinism: run1 %016llx run2 %016llx -> %s\n",
              static_cast<unsigned long long>(d1),
              static_cast<unsigned long long>(d2),
              d1 == d2 ? "IDENTICAL" : "MISMATCH");
  if (d1 != d2) return 1;

  bg::sim::Json j = bg::sim::Json::object();
  j.set("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
  bg::sim::Json cj = bg::sim::Json::object();
  cj.set("stats", bg::bench::statsToJson(st));
  cj.set("p50", p50);
  cj.set("p99", p99);
  cj.set("image_bytes", commit.imageBytes);
  cj.set("commits", commit.commits);
  cj.set("failures", commit.failures);
  j.set("commit", std::move(cj));
  bg::sim::Json rj = bg::sim::Json::object();
  rj.set("scratch_cycles", resume.scratchCycles);
  rj.set("resumed_cycles", resume.resumedCycles);
  rj.set("saved_cycles", saved);
  rj.set("saved_pct", bg::bench::pct(saved, resume.scratchCycles));
  rj.set("restores", resume.restores);
  j.set("resume", std::move(rj));
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(d1));
  j.set("digest", digest);
  if (!bg::bench::maybeWriteJson(jsonPath, j)) {
    return 1;
  }
  return 0;
}
