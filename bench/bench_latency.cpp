// Regenerates paper Table I: latency for various programming models in
// SMP mode — DCMF eager / put / get, MPI eager / rendezvous, ARMCI
// blocking put / get — between two adjacent nodes on the torus.
//
// Measurement: simulated-cycle timestamps from the machine-global
// timebase. One-way operations are timed sender-timestamp to
// receiver-timestamp (or to remote-visibility for put); request/
// response operations are timed at the requester.
//
// Paper reference (us): DCMF eager 1.6, MPI eager 2.4, MPI rendezvous
// 5.6, DCMF put 0.9, DCMF get 1.6, ARMCI put 2.0, ARMCI get 3.3.
#include <functional>
#include <string>

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
constexpr int kIters = 32;

enum class Proto {
  kDcmfEager,
  kMpiEager,
  kMpiRendezvous,
  kDcmfPut,
  kDcmfGet,
  kArmciPut,
  kArmciGet,
};

bool isOneSided(Proto p) {
  return p == Proto::kDcmfPut || p == Proto::kDcmfGet ||
         p == Proto::kArmciPut || p == Proto::kArmciGet;
}

// The paper's Table I measures small-message latency; the rendezvous
// row uses a payload just over the (benchmark-lowered) eager
// threshold so the handshake, not serialization, dominates.
constexpr std::uint64_t kRndvEagerThreshold = 256;

std::uint64_t payloadBytes(Proto p) {
  return p == Proto::kMpiRendezvous ? 512 : 8;
}

void emitBarrier(vm::ProgramBuilder& b) {
  b.rtcall(static_cast<std::int64_t>(rt::Rt::kMpiBarrier));
}

/// Build the two-rank ping program for one protocol. Rank 0 initiates;
/// rank 1 receives (two-sided) or just barriers along (one-sided).
vm::Program pingProgram(Proto p) {
  vm::ProgramBuilder b("latency");
  const std::uint64_t bytes = payloadBytes(p);

  b.mov(rBuf, 10);  // heap base buffer
  // Rank test: r1 = rank at startup.
  const std::size_t toRecv = b.emitForwardBranch(vm::Op::kBnez, 1);

  // ---- rank 0: initiator ----
  {
    const auto top = b.loopBegin(rIter, kIters);
    emitBarrier(b);
    b.readTb(rT);
    b.sample(rT);
    switch (p) {
      case Proto::kDcmfEager:
        b.li(1, 1);          // dst rank
        b.mov(2, rBuf);
        b.li(3, static_cast<std::int64_t>(bytes));
        b.li(4, 7);          // tag
        b.rtcall(static_cast<std::int64_t>(rt::Rt::kDcmfSend));
        break;
      case Proto::kMpiEager:
      case Proto::kMpiRendezvous:
        b.li(1, 1);
        b.mov(2, rBuf);
        b.li(3, static_cast<std::int64_t>(bytes));
        b.li(4, 7);
        b.rtcall(static_cast<std::int64_t>(rt::Rt::kMpiSend));
        break;
      case Proto::kDcmfPut:
        b.li(1, 1);
        b.mov(2, rBuf);
        b.mov(3, rBuf);      // same vaddr layout on the peer
        b.addi(3, 3, 512);
        b.li(4, static_cast<std::int64_t>(bytes));
        b.li(5, 1);          // wait for remote visibility
        b.rtcall(static_cast<std::int64_t>(rt::Rt::kDcmfPut));
        break;
      case Proto::kDcmfGet:
        b.li(1, 1);
        b.mov(2, rBuf);
        b.addi(2, 2, 512);   // remote source
        b.mov(3, rBuf);      // local destination
        b.li(4, static_cast<std::int64_t>(bytes));
        b.rtcall(static_cast<std::int64_t>(rt::Rt::kDcmfGet));
        break;
      case Proto::kArmciPut:
        b.li(1, 1);
        b.mov(2, rBuf);
        b.mov(3, rBuf);
        b.addi(3, 3, 512);
        b.li(4, static_cast<std::int64_t>(bytes));
        b.rtcall(static_cast<std::int64_t>(rt::Rt::kArmciPut));
        break;
      case Proto::kArmciGet:
        b.li(1, 1);
        b.mov(2, rBuf);
        b.addi(2, 2, 512);
        b.mov(3, rBuf);
        b.li(4, static_cast<std::int64_t>(bytes));
        b.rtcall(static_cast<std::int64_t>(rt::Rt::kArmciGet));
        break;
    }
    if (isOneSided(p)) {
      // Completion timestamp at the initiator.
      b.readTb(rT);
      b.sample(rT);
    }
    b.loopEnd(rIter, top);
    b.li(vm::kArg0, 0);
    b.syscall(static_cast<std::int64_t>(kernel::Sys::kExit));
  }

  // ---- rank 1: target ----
  b.patchHere(toRecv);
  {
    const auto top = b.loopBegin(rIter, kIters);
    emitBarrier(b);
    if (!isOneSided(p)) {
      b.li(1, 0);  // source rank
      b.mov(2, rBuf);
      b.addi(2, 2, 1024);
      b.li(3, static_cast<std::int64_t>(bytes));
      b.li(4, 7);
      b.rtcall(static_cast<std::int64_t>(
          p == Proto::kDcmfEager ? rt::Rt::kDcmfRecv : rt::Rt::kMpiRecv));
      b.readTb(rT);
      b.sample(rT);
    }
    b.loopEnd(rIter, top);
    b.li(vm::kArg0, 0);
    b.syscall(static_cast<std::int64_t>(kernel::Sys::kExit));
  }
  return std::move(b).build();
}

struct Row {
  const char* name;
  Proto proto;
  double paperUs;
};

double measure(Proto p, rt::KernelKind kind) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  cfg.kernel = kind;
  if (p == Proto::kMpiRendezvous) {
    cfg.mpi.eagerThreshold = kRndvEagerThreshold;
  }
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(200'000'000)) return -1;

  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("lat", pingProgram(p));
  std::vector<std::uint64_t> s0, s1;
  cluster.attachSamples(0, 0, &s0);
  cluster.attachSamples(1, 0, &s1);
  if (!cluster.loadJob(job) || !cluster.run(1'000'000'000ULL)) return -1;

  std::vector<std::uint64_t> lat;
  if (isOneSided(p)) {
    // s0 alternates T0, T1.
    for (std::size_t i = 0; i + 1 < s0.size(); i += 2) {
      lat.push_back(s0[i + 1] - s0[i]);
    }
  } else {
    const std::size_t n = std::min(s0.size(), s1.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (s1[i] > s0[i]) lat.push_back(s1[i] - s0[i]);
    }
  }
  if (lat.size() > 4) lat.erase(lat.begin(), lat.begin() + 2);  // warmup
  const auto st = bg::bench::computeStats(lat);
  return sim::cyclesToUs(static_cast<sim::Cycle>(st.mean));
}

}  // namespace

int main(int argc, char** argv) {
  bool compareFwk = false;
  bg::bench::Args args("bench_latency", "write the latency rows as JSON");
  args.flag("--fwk", &compareFwk,
            "add the same table on the FWK (Linux-style) kernel");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;

  const Row rows[] = {
      {"DCMF Eager One-way", Proto::kDcmfEager, 1.6},
      {"MPI Eager One-way", Proto::kMpiEager, 2.4},
      {"MPI Rendezvous One-way", Proto::kMpiRendezvous, 5.6},
      {"DCMF Put", Proto::kDcmfPut, 0.9},
      {"DCMF Get", Proto::kDcmfGet, 1.6},
      {"ARMCI blocking Put", Proto::kArmciPut, 2.0},
      {"ARMCI blocking Get", Proto::kArmciGet, 3.3},
  };

  sim::Json jcnk = sim::Json::object();
  std::printf("Table I: latency for various programming models, SMP mode\n");
  bg::bench::printRule();
  std::printf("%-26s %14s %12s\n", "Protocol", "measured(us)", "paper(us)");
  for (const Row& r : rows) {
    const double us = measure(r.proto, rt::KernelKind::kCnk);
    std::printf("%-26s %14.2f %12.1f\n", r.name, us, r.paperUs);
    sim::Json row = sim::Json::object();
    row.set("measured_us", us);
    row.set("paper_us", r.paperUs);
    jcnk.set(r.name, std::move(row));
  }

  sim::Json jfwk = sim::Json::object();
  if (compareFwk) {
    std::printf("\nSame operations with a Linux-style kernel path "
                "(per-page pinning + bounce buffers):\n");
    bg::bench::printRule();
    for (const Row& r : rows) {
      const double us = measure(r.proto, rt::KernelKind::kFwk);
      std::printf("%-26s %14.2f %12s\n", r.name, us, "-");
      sim::Json row = sim::Json::object();
      row.set("measured_us", us);
      jfwk.set(r.name, std::move(row));
    }
  }

  if (args.json() != nullptr) {
    sim::Json j = sim::Json::object();
    j.set("bench", "latency");
    j.set("cnk", std::move(jcnk));
    if (compareFwk) j.set("fwk", std::move(jfwk));
    if (!bg::bench::maybeWriteJson(args.json(), j)) return 1;
  }
  return 0;
}
