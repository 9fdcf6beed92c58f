// Regenerates paper Fig 8: throughput of the rendezvous protocol for a
// near-neighbour exchange, as a function of message size.
//
// Each rank sends to its +1 ring neighbour and receives from its -1
// neighbour (dimension-ordered routing gives each pair its own links),
// using MPI rendezvous. Reported per-node throughput should rise with
// message size and saturate at the per-link bandwidth (425 MB/s on
// BG/P, which is also this model's link rate).
//
// A second series runs the same exchange through the Linux-style
// kernel path (per-page pinning, bounce buffers) to show what the
// paper means by "these came effectively for free with CNK ... but
// modifying a vanilla Linux ... would be difficult" (§V-C).

#include "bench_util.hpp"
#include "kernel/syscalls.hpp"
#include "runtime/app.hpp"
#include "runtime/rt_ids.hpp"
#include "vm/builder.hpp"

namespace {

using namespace bg;
using vm::Reg;

constexpr Reg rIter = 16;
constexpr Reg rBuf = 17;
constexpr Reg rT = 18;
constexpr Reg rDst = 19;
constexpr Reg rSrc = 20;
constexpr int kIters = 8;

/// Ring exchange: send `bytes` to (rank+1)%npes, receive from
/// (rank-1+npes)%npes, repeated kIters times; the main thread samples
/// total exchange cycles.
vm::Program exchangeProgram(std::uint64_t bytes) {
  vm::ProgramBuilder b("exchange");
  b.mov(rBuf, 10);

  // dst = rank+1; if (dst >= npes) dst -= npes;
  b.addi(rDst, 1, 1);
  const std::size_t noWrapD = b.emitForwardBranch(vm::Op::kBlt, rDst, 2);
  b.sub(rDst, rDst, 2);
  b.patchHere(noWrapD);
  // src = rank-1; if (rank == 0) src = npes-1;
  const std::size_t rankZero = b.emitForwardBranch(vm::Op::kBeqz, 1);
  b.addi(rSrc, 1, -1);
  const std::size_t srcDone = b.emitForwardBranch(vm::Op::kJump);
  b.patchHere(rankZero);
  b.addi(rSrc, 2, -1);
  b.patchHere(srcDone);

  b.rtcall(static_cast<std::int64_t>(rt::Rt::kMpiBarrier));
  b.readTb(rT);
  b.sample(rT);

  const auto top = b.loopBegin(rIter, kIters);
  // Non-blocking-ish: send first (rendezvous blocks until drained, the
  // partner's recv posts concurrently on its own core).
  // Even ranks send then recv; odd ranks recv then send — avoids the
  // classic head-to-head rendezvous deadlock on a blocking API.
  b.andr(rT, 1, 1);  // placeholder to keep rT warm (overwritten below)
  {
    // parity test: r1 & 1
    constexpr Reg rPar = 21;
    b.li(rPar, 1);
    b.andr(rPar, 1, rPar);
    const std::size_t odd = b.emitForwardBranch(vm::Op::kBnez, rPar);
    // even: send, recv
    b.mov(1, rDst);
    b.mov(2, rBuf);
    b.li(3, static_cast<std::int64_t>(bytes));
    b.li(4, 9);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kMpiSend));
    b.mov(1, rSrc);
    b.mov(2, rBuf);
    b.addi(2, 2, 1 << 22);
    b.li(3, static_cast<std::int64_t>(bytes));
    b.li(4, 9);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kMpiRecv));
    const std::size_t done = b.emitForwardBranch(vm::Op::kJump);
    // odd: recv, send
    b.patchHere(odd);
    b.mov(1, rSrc);
    b.mov(2, rBuf);
    b.addi(2, 2, 1 << 22);
    b.li(3, static_cast<std::int64_t>(bytes));
    b.li(4, 9);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kMpiRecv));
    b.mov(1, rDst);
    b.mov(2, rBuf);
    b.li(3, static_cast<std::int64_t>(bytes));
    b.li(4, 9);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kMpiSend));
    b.patchHere(done);
  }
  b.loopEnd(rIter, top);

  b.readTb(rT);
  b.sample(rT);
  b.li(vm::kArg0, 0);
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kExit));
  return std::move(b).build();
}

/// Returns per-node throughput in MB/s for the given message size.
double runExchange(std::uint64_t bytes, rt::KernelKind kind, int nodes) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = nodes;
  cfg.kernel = kind;
  // Ring exchange with rendezvous for every size in the sweep.
  cfg.mpi.eagerThreshold = 512;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(400'000'000)) return -1;

  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("exch", exchangeProgram(bytes),
                                             1 << 20, 1 << 20);
  std::vector<std::vector<std::uint64_t>> samples(nodes);
  for (int r = 0; r < nodes; ++r) cluster.attachSamples(r, 0, &samples[r]);
  if (!cluster.loadJob(job) || !cluster.run(4'000'000'000ULL)) return -1;

  // Slowest rank bounds the exchange.
  sim::Cycle worst = 0;
  for (const auto& s : samples) {
    if (s.size() == 2) worst = std::max(worst, s[1] - s[0]);
  }
  if (worst == 0) return -1;
  const double secs = sim::cyclesToSec(worst);
  // An exchange moves bytes in AND out of every node per iteration.
  const double mb = 2.0 * static_cast<double>(bytes) * kIters / 1e6;
  return mb / secs;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bg::bench::Args args("bench_throughput",
                       "write the throughput series as JSON");
  args.flag("--quick", &quick, "message sizes up to 256 KB instead of 4 MB");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  const int nodes = 8;

  std::vector<std::uint64_t> sizes = {1 << 10, 4 << 10,  16 << 10,
                                      64 << 10, 256 << 10, 1 << 20,
                                      4 << 20};
  if (quick) sizes.resize(5);

  std::printf("Fig 8: rendezvous near-neighbour exchange throughput "
              "(%d-node ring)\n", nodes);
  std::printf("link rate: 425 MB/s (0.5 B/cycle at 850MHz)\n");
  bg::bench::printRule();
  std::printf("%12s %18s %18s\n", "bytes", "CNK MB/s/node",
              "Linux-path MB/s/node");
  sim::Json series = sim::Json::array();
  for (std::uint64_t sz : sizes) {
    const double cnk = runExchange(sz, rt::KernelKind::kCnk, nodes);
    const double fwk = runExchange(sz, rt::KernelKind::kFwk, nodes);
    std::printf("%12llu %18.1f %18.1f\n",
                static_cast<unsigned long long>(sz), cnk, fwk);
    sim::Json row = sim::Json::object();
    row.set("bytes", sz);
    row.set("cnk_mb_s", cnk);
    row.set("fwk_mb_s", fwk);
    series.push(std::move(row));
  }
  std::printf("\npaper shape: throughput rises with message size and "
              "saturates at link bandwidth;\nthe kernel-mediated path "
              "saturates lower and later.\n");

  sim::Json j = sim::Json::object();
  j.set("bench", "throughput");
  j.set("nodes", static_cast<std::int64_t>(nodes));
  j.set("iters", static_cast<std::int64_t>(kIters));
  j.set("quick", quick);
  j.set("series", std::move(series));
  if (!bg::bench::maybeWriteJson(args.json(), j)) return 1;
  return 0;
}
