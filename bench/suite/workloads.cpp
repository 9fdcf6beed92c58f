// The four workloads. Every input (node kinds, job programs, arrivals,
// message partners, payload values) is generated from the seed inside
// the timed set-up, before the first boot event; the machine receives
// only the generated inputs. Host time then runs from the first boot
// event to completion.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/fwq.hpp"
#include "kernel/syscalls.hpp"
#include "runtime/app.hpp"
#include "runtime/rt_ids.hpp"
#include "sim/hash.hpp"
#include "sim/rng.hpp"
#include "suite.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace bg::suite {

namespace {

constexpr std::uint64_t kEventLimit = 4'000'000'000ULL;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t sys(kernel::Sys s) { return static_cast<std::int64_t>(s); }
std::int64_t rtc(rt::Rt r) { return static_cast<std::int64_t>(r); }

/// Fisher-Yates with the simulator's seeded generator.
template <class T>
void shuffle(std::vector<T>& v, sim::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.nextBelow(i)]);
  }
}

/// fails += (reg < 0): every syscall and rtcall result is checked
/// in-program, so a failed op is counted where it happens.
void countFailure(vm::ProgramBuilder& b, vm::Reg fails, vm::Reg reg,
                  vm::Reg tmp) {
  b.shr(tmp, reg, 63);
  b.add(fails, fails, tmp);
}

/// (rank & mask) extra compute blocks of `cycles`, so ranks reach
/// their next shared step at different times.
void computeSkew(vm::ProgramBuilder& b, vm::Reg rank, std::int64_t mask,
                 std::uint64_t cycles, vm::Reg tmp) {
  b.li(tmp, mask);
  b.andr(tmp, rank, tmp);
  const std::int64_t top = b.label();
  const std::size_t done = b.emitForwardBranch(vm::Op::kBeqz, tmp);
  b.compute(cycles);
  b.addi(tmp, tmp, -1);
  b.jump(top);
  b.patchHere(done);
}

/// Runtime decorators of a traced repetition, one per compute node.
class RuntimeHooks {
 public:
  RuntimeHooks(rt::Cluster& c, Tracer* tr) {
    if (tr == nullptr) return;
    for (int n = 0; n < c.config().computeNodes; ++n) {
      hooks_.push_back(std::make_unique<TracedRuntime>(*tr, c.dispatcherOn(n)));
      c.machine().node(n).attachRuntime(hooks_.back().get());
    }
  }
  std::uint64_t calls() const {
    std::uint64_t n = 0;
    for (const auto& h : hooks_) n += h->calls();
    return n;
  }

 private:
  std::vector<std::unique_ptr<TracedRuntime>> hooks_;
};

// --- driving the machine: Cluster's own entry points when untraced, the
// same predicates through Tracer::runEvents when traced ----------------

bool bootAll(rt::Cluster& c, Tracer* tr,
             const std::function<Label()>& classify) {
  if (tr == nullptr) return c.bootAll(kEventLimit);
  Scope s(tr, Label::kRtBoot);
  const int nodes = c.config().computeNodes;
  for (int n = 0; n < nodes; ++n) c.kernelOn(n).boot();
  return tr->runEvents(
      c.engine(), classify,
      [&c, nodes] {
        for (int n = 0; n < nodes; ++n) {
          if (!c.kernelOn(n).booted()) return false;
        }
        return true;
      },
      kEventLimit);
}

bool loadJob(rt::Cluster& c, Tracer* tr, const kernel::JobSpec& job) {
  Scope s(tr, Label::kRtLoad);
  return c.loadJob(job);
}

bool runJob(rt::Cluster& c, Tracer* tr,
            const std::function<Label()>& classify) {
  if (tr == nullptr) return c.run(kEventLimit);
  return tr->runEvents(c.engine(), classify, [&c] { return c.jobDone(); },
                       kEventLimit);
}

// --- event classifiers: O(1) public counters compared after each event --

/// True when a monotone counter moved since the previous call.
struct Moved {
  std::uint64_t last = 0;
  bool operator()(std::uint64_t now) {
    const bool moved = now != last;
    last = now;
    return moved;
  }
};

/// Torus bytes injected plus collective packets delivered.
std::uint64_t netTraffic(hw::Machine& m) {
  return m.torus().bytesMoved() + m.collective().packetsDelivered();
}

/// A CNK logged kCkptBegin: the event that cut and built an image.
struct CkptProbe {
  rt::Cluster& c;
  std::vector<std::uint64_t> seq;
  explicit CkptProbe(rt::Cluster& cl)
      : c(cl), seq(static_cast<std::size_t>(cl.config().computeNodes), 0) {}
  bool advanced() {
    bool begun = false;
    for (std::size_t n = 0; n < seq.size(); ++n) {
      const kernel::KernelBase& k = c.kernelOn(static_cast<int>(n));
      const std::uint64_t next = k.rasNextSeq();
      if (next == seq[n]) continue;
      const auto& log = k.rasLog();
      const std::size_t fresh =
          std::min<std::size_t>(next - seq[n], log.size());
      for (std::size_t i = log.size() - fresh; i < log.size(); ++i) {
        begun |= log[i].code == kernel::RasEvent::Code::kCkptBegin;
      }
      seq[n] = next;
    }
    return begun;
  }
};

// --- results --------------------------------------------------------------

void mixRas(sim::Fnv1a& h, rt::Cluster& c) {
  for (int n = 0; n < c.config().computeNodes; ++n) {
    for (const kernel::RasEvent& e : c.kernelOn(n).rasLog()) {
      h.mix(static_cast<std::uint64_t>(n));
      h.mix(e.cycle);
      h.mix(static_cast<std::uint64_t>(e.code));
      h.mix(static_cast<std::uint64_t>(e.severity));
      h.mix(e.detail);
    }
  }
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

struct SvcCounts {
  std::uint64_t jobsCompleted = 0;
  std::uint64_t jobsFailed = 0;
  std::uint64_t restarts = 0;
  std::uint64_t saves = 0;
  std::uint64_t bytesWritten = 0;
};

/// Every per-layer count, read from public getters after the run.
std::vector<Metric> layerMetrics(rt::Cluster& c, const RuntimeHooks& hooks,
                                 const SvcCounts& svc) {
  hw::Machine& m = c.machine();
  std::uint64_t slices = 0, busy = 0, l1Acc = 0, l1Miss = 0, l3Acc = 0,
                l3Miss = 0, tlbHit = 0, tlbMiss = 0;
  std::uint64_t commits = 0, ckptFails = 0, restores = 0, imageBytes = 0;
  for (int n = 0; n < m.numComputeNodes(); ++n) {
    hw::Node& node = m.node(n);
    for (int i = 0; i < node.numCores(); ++i) {
      hw::Core& core = node.core(i);
      slices += core.slicesRun();
      busy += core.cyclesBusy();
      l1Acc += core.l1().stats().accesses;
      l1Miss += core.l1().stats().misses;
      tlbHit += core.mmu().hitCount();
      tlbMiss += core.mmu().missCount();
    }
    l3Acc += node.l3().stats().accesses;
    l3Miss += node.l3().stats().misses;
    if (const cnk::CnkKernel* k = c.cnkOn(n)) {
      commits += k->ckptCommits();
      ckptFails += k->ckptFailures();
      restores += k->ckptRestores();
      imageBytes += k->lastCkptBytes();
    }
  }
  const msg::MpiStats& mpi = c.mpi().stats();
  const msg::DcmfStats& dcmf = c.dcmf().stats();
  const cnk::FshipStats fship = c.fshipTotals();
  const io::CiodStats ciod = c.ciodTotals();
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", "count", d(c.engine().eventsProcessed())},
      {"hw.core.slices", "count", d(slices)},
      {"hw.core.busy_cycles", "cycles", d(busy)},
      {"hw.l1.accesses", "count", d(l1Acc)},
      {"hw.l1.miss_ratio", "ratio", ratio(l1Miss, l1Acc)},
      {"hw.l3.accesses", "count", d(l3Acc)},
      {"hw.l3.miss_ratio", "ratio", ratio(l3Miss, l3Acc)},
      {"hw.tlb.hits", "count", d(tlbHit)},
      {"hw.tlb.miss_ratio", "ratio", ratio(tlbMiss, tlbHit + tlbMiss)},
      {"hw.torus.bytes", "B", d(m.torus().bytesMoved())},
      {"hw.collective.packets", "count", d(m.collective().packetsDelivered())},
      {"hw.collective.bytes", "B", d(m.collective().bytesDelivered())},
      {"hw.barrier.completed", "count", d(m.barrier().barriersCompleted())},
      {"msg.mpi.sends", "count", d(mpi.sends)},
      {"msg.mpi.recvs", "count", d(mpi.recvs)},
      {"msg.mpi.allreduces", "count", d(mpi.allreduces)},
      {"msg.mpi.barriers", "count", d(mpi.barriers)},
      {"msg.dcmf.eager_sends", "count", d(dcmf.eagerSends)},
      {"msg.dcmf.bytes", "B", d(dcmf.bytesSent)},
      {"runtime.rtcalls", "count", d(hooks.calls())},
      {"cnk.ckpt.commits", "count", d(commits)},
      {"cnk.ckpt.failures", "count", d(ckptFails)},
      {"cnk.ckpt.restores", "count", d(restores)},
      {"cnk.ckpt.image_bytes", "B", d(imageBytes)},
      {"cnk.fship.requests", "count", d(fship.requests)},
      {"cnk.fship.bytes_shipped", "B", d(fship.bytesShipped)},
      {"cnk.fship.retransmits", "count", d(fship.retransmits)},
      {"cnk.fship.eio", "count", d(fship.eioReturns)},
      {"io.ciod.requests", "count", d(ciod.requests)},
      {"io.ciod.bytes_in", "B", d(ciod.bytesIn)},
      {"io.ciod.bytes_out", "B", d(ciod.bytesOut)},
      {"io.ciod.errors", "count", d(ciod.errors)},
      {"svc.jobs_completed", "count", d(svc.jobsCompleted)},
      {"svc.jobs_failed", "count", d(svc.jobsFailed)},
      {"svc.restarts", "count", d(svc.restarts)},
      {"svc.ckpt.saves", "count", d(svc.saves)},
      {"svc.ckpt.bytes_written", "B", d(svc.bytesWritten)},
      {"svc.ckpt.bytes_per_save", "B", ratio(svc.bytesWritten, svc.saves)},
  };
}

/// Samples of one (rank, thread) sink: `expected` values, or a
/// violation naming what is missing.
bool checkCount(Rep& r, const std::vector<std::uint64_t>& s,
                std::size_t expected, const std::string& who) {
  if (s.size() == expected) return true;
  r.violations.push_back(who + ": " + std::to_string(s.size()) +
                         " samples, expected " + std::to_string(expected));
  return false;
}

// --- fwq_boot -------------------------------------------------------------

Rep runFwqBoot(std::uint64_t seed, bool smoke, Tracer* tr) {
  const int nodes = smoke ? 8 : 32;
  const int fwkNodes = nodes / 4;
  const int samples = smoke ? 20 : 400;
  constexpr int kThreads = 4;
  Rep r;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<rt::Cluster> cluster;
  kernel::JobSpec job;
  std::vector<std::vector<std::uint64_t>> sinks(
      static_cast<std::size_t>(nodes * kThreads));
  {
    Scope s(tr, Label::kRtSetup);
    sim::Rng rng(seed, "suite.fwq_boot");
    rt::ClusterConfig cfg;
    cfg.computeNodes = nodes;
    cfg.seed = seed;
    // The seed places the FWK nodes among the CNK ones and nudges the
    // work quantum by under 1%.
    cfg.nodeKernels.assign(static_cast<std::size_t>(nodes),
                           rt::KernelKind::kCnk);
    std::fill_n(cfg.nodeKernels.begin(), fwkNodes, rt::KernelKind::kFwk);
    shuffle(cfg.nodeKernels, rng);
    apps::FwqParams fp;
    fp.samples = samples;
    fp.threads = kThreads;
    fp.cyclesPerRep += rng.nextBelow(16);
    job.exe = apps::fwqImage(fp);
    cluster = std::make_unique<rt::Cluster>(cfg);
    for (int rank = 0; rank < nodes; ++rank) {
      for (int t = 0; t < kThreads; ++t) {
        cluster->attachSamples(
            rank, t, &sinks[static_cast<std::size_t>(rank * kThreads + t)]);
      }
    }
  }
  r.setupSec = secondsSince(t0);
  RuntimeHooks hooks(*cluster, tr);

  // FWQ never touches the networks, svc, checkpoints or I/O: every
  // event is core/VM, kernel or engine work.
  const auto classify = [] { return Label::kHwCore; };
  const Clock::time_point t1 = Clock::now();
  const bool ok = bootAll(*cluster, tr, classify) &&
                  loadJob(*cluster, tr, job) && runJob(*cluster, tr, classify);
  r.hostSec = secondsSince(t1);
  if (!ok) r.violations.push_back("boot or FWQ run did not complete");

  r.simCycles = cluster->engine().now();
  sim::Fnv1a h;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    const std::vector<std::uint64_t>& s = sinks[i];
    const std::size_t want = static_cast<std::size_t>(samples);
    if (!checkCount(r, s, want,
                    "rank " + std::to_string(i / kThreads) + " thread " +
                        std::to_string(i % kThreads))) {
      r.opsFailed += want > s.size() ? want - s.size() : 0;
    }
    r.opCycles.insert(r.opCycles.end(), s.begin(), s.end());
    h.mix(s.size());
    for (std::uint64_t v : s) h.mix(v);
  }
  mixRas(h, *cluster);
  r.digest = h.digest();
  if (tr != nullptr) r.layers = layerMetrics(*cluster, hooks, {});
  return r;
}

// --- comm -----------------------------------------------------------------

/// Per iteration: compute (rank mod 8 extra `skew` blocks, so ranks
/// reach the collective at different times), then a 256-byte eager
/// send to rank+stride and a receive from rank-stride over the torus
/// and a one-double allreduce over the collective tree, bracketed by
/// readTb. The allreduce adds (rank + c) as the bit pattern of a
/// denormal double, which the tree sums exactly, so the result has a
/// closed form.
vm::Program commProgram(int iterations, int stride, std::int64_t c,
                        std::uint64_t computeCycles, std::uint64_t skew) {
  using vm::Reg;
  constexpr Reg rBuf = 16, rDst = 17, rSrc = 18, rIter = 19, rT0 = 20,
                rT1 = 21, rTmp = 22, rAccA = 23, rAccR = 24, rFails = 25,
                rRank = 26, rN = 27, rBit = 28, rSkew = 29;
  constexpr std::int64_t kSend = 0, kRecv = 512, kRedSrc = 1024,
                         kRedDst = 1088, kBytes = 256, kTag = 7;
  vm::ProgramBuilder b("comm");
  b.mov(rBuf, 10);
  b.mov(rRank, 1);
  b.mov(rN, 2);
  // dst = (rank + stride) mod n; src = (rank + n - stride) mod n.
  b.addi(rDst, rRank, stride);
  std::size_t fix = b.emitForwardBranch(vm::Op::kBlt, rDst, rN);
  b.sub(rDst, rDst, rN);
  b.patchHere(fix);
  b.add(rSrc, rRank, rN);
  b.addi(rSrc, rSrc, -stride);
  fix = b.emitForwardBranch(vm::Op::kBlt, rSrc, rN);
  b.sub(rSrc, rSrc, rN);
  b.patchHere(fix);
  b.addi(rTmp, rRank, 1);
  b.store(rBuf, rTmp, kSend);
  b.addi(rTmp, rRank, c);
  b.store(rBuf, rTmp, kRedSrc);
  b.li(rAccA, 0);
  b.li(rAccR, 0);
  b.li(rFails, 0);

  const auto top = b.loopBegin(rIter, iterations);
  b.compute(computeCycles);
  computeSkew(b, rRank, 7, skew, rSkew);
  b.readTb(rT0);
  b.mov(1, rDst);
  b.addi(2, rBuf, kSend);
  b.li(3, kBytes);
  b.li(4, kTag);
  b.rtcall(rtc(rt::Rt::kMpiSend));
  countFailure(b, rFails, vm::kRetReg, rBit);
  b.mov(1, rSrc);
  b.addi(2, rBuf, kRecv);
  b.li(3, kBytes);
  b.li(4, kTag);
  b.rtcall(rtc(rt::Rt::kMpiRecv));
  countFailure(b, rFails, vm::kRetReg, rBit);
  b.load(rTmp, rBuf, kRecv);
  b.add(rAccR, rAccR, rTmp);
  b.addi(1, rBuf, kRedSrc);
  b.li(2, 1);
  b.addi(3, rBuf, kRedDst);
  b.rtcall(rtc(rt::Rt::kMpiAllreduce));
  countFailure(b, rFails, vm::kRetReg, rBit);
  b.load(rTmp, rBuf, kRedDst);
  b.add(rAccA, rAccA, rTmp);
  b.readTb(rT1);
  b.sub(rTmp, rT1, rT0);
  b.sample(rTmp);
  b.loopEnd(rIter, top);

  b.sample(rAccA);
  b.sample(rAccR);
  b.sample(rFails);
  b.li(vm::kArg0, 0);
  b.syscall(sys(kernel::Sys::kExit));
  return std::move(b).build();
}

Rep runComm(std::uint64_t seed, bool smoke, Tracer* tr) {
  const int nodes = smoke ? 8 : 64;
  const int iterations = smoke ? 40 : 8000;
  Rep r;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<rt::Cluster> cluster;
  kernel::JobSpec job;
  std::vector<std::vector<std::uint64_t>> sinks(
      static_cast<std::size_t>(nodes));
  // The ring runs one way for every seed: the reverse direction moves
  // the same messages over the same events but costs about 9% more host
  // time, which a seeded direction turned into run-to-run spread.
  constexpr int kStride = 1;
  std::int64_t c = 0;
  {
    Scope s(tr, Label::kRtSetup);
    // The seed picks the reduced values and a small compute jitter:
    // every seed moves the same messages the same distance, so seeds
    // differ in values, not in volume.
    sim::Rng rng(seed, "suite.comm");
    c = 1 + static_cast<std::int64_t>(rng.nextBelow(1000));
    const std::uint64_t computeCycles = 2'000 + rng.nextBelow(32);
    const std::uint64_t skew = 100 + rng.nextBelow(16);
    rt::ClusterConfig cfg;
    cfg.computeNodes = nodes;
    cfg.seed = seed;
    job.exe = kernel::ElfImage::makeExecutable(
        "comm", commProgram(iterations, kStride, c, computeCycles, skew));
    cluster = std::make_unique<rt::Cluster>(cfg);
    for (int rank = 0; rank < nodes; ++rank) {
      cluster->attachSamples(rank, 0, &sinks[static_cast<std::size_t>(rank)]);
    }
  }
  r.setupSec = secondsSince(t0);
  RuntimeHooks hooks(*cluster, tr);

  hw::Machine& machine = cluster->machine();
  Moved net;
  const auto classify = [&] {
    return net(netTraffic(machine)) ? Label::kHwNet : Label::kHwCore;
  };
  const Clock::time_point t1 = Clock::now();
  const bool ok = bootAll(*cluster, tr, classify) &&
                  loadJob(*cluster, tr, job) && runJob(*cluster, tr, classify);
  r.hostSec = secondsSince(t1);
  if (!ok) r.violations.push_back("boot or comm run did not complete");

  r.simCycles = cluster->engine().now();
  const std::uint64_t n = static_cast<std::uint64_t>(nodes);
  const std::uint64_t iters = static_cast<std::uint64_t>(iterations);
  const std::uint64_t reduced =
      iters * (n * static_cast<std::uint64_t>(c) + n * (n - 1) / 2);
  sim::Fnv1a h;
  for (int rank = 0; rank < nodes; ++rank) {
    const std::vector<std::uint64_t>& s = sinks[static_cast<std::size_t>(rank)];
    const std::string who = "rank " + std::to_string(rank);
    h.mix(s.size());
    for (std::uint64_t v : s) h.mix(v);
    if (!checkCount(r, s, iters + 3, who)) {
      r.opsFailed += iters;
      continue;
    }
    r.opCycles.insert(r.opCycles.end(), s.begin(), s.begin() + iterations);
    const std::uint64_t src = static_cast<std::uint64_t>(
        (rank + nodes - kStride) % nodes);
    if (s[iters] != reduced) {
      r.violations.push_back(who + ": allreduce sum " +
                             std::to_string(s[iters]) + " != " +
                             std::to_string(reduced));
    }
    if (s[iters + 1] != iters * (src + 1)) {
      r.violations.push_back(who + ": ring payload sum mismatch");
    }
    r.opsFailed += s[iters + 2];
  }
  mixRas(h, *cluster);
  r.digest = h.digest();
  if (tr != nullptr) r.layers = layerMetrics(*cluster, hooks, {});
  return r;
}

// --- jobstream ------------------------------------------------------------

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

/// bench_jobstream's stream (`--nodes 32 --crashes 4`): its job shapes,
/// node death, service-node crash schedule and write-through svc
/// checkpointing. The jobs come in blocks of 100 holding every shape
/// once: 25 FWK jobs (width 1, 8..32 reps of 12K cycles) and 75 CNK
/// jobs (widths 1..3 times the same reps), with 100 arrival gaps spread
/// evenly over [0, 60K) cycles. The seed shuffles jobs and gaps, so all
/// seeds submit the same work over the same span in different orders.
Rep runJobstream(std::uint64_t seed, bool smoke, Tracer* tr) {
  const int blocks = smoke ? 1 : 10;
  const int nodes = smoke ? 8 : 32;
  const int crashes = smoke ? 1 : 4;
  constexpr int kFwkNodes = 2;
  constexpr int kFailNode = 2;
  constexpr sim::Cycle kFailCycle = 4'000'000;
  constexpr sim::Cycle kRestartDelay = 250'000;
  constexpr std::uint64_t kPerRep = 12'000;
  struct Shape {
    bool fwk;
    int width;
    std::uint64_t reps;
  };
  const int jobs = blocks * 100;
  Rep r;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<rt::Cluster> cluster;
  std::unique_ptr<svc::ServiceHost> host;
  int submitted = 0;
  {
    Scope s(tr, Label::kRtSetup);
    rt::ClusterConfig cfg;
    cfg.computeNodes = nodes;
    cfg.seed = seed;
    cfg.nodeKernels.assign(static_cast<std::size_t>(nodes),
                           rt::KernelKind::kCnk);
    for (int n = nodes - kFwkNodes; n < nodes; ++n) {
      cfg.nodeKernels[static_cast<std::size_t>(n)] = rt::KernelKind::kFwk;
    }
    cluster = std::make_unique<rt::Cluster>(cfg);
    host = std::make_unique<svc::ServiceHost>(*cluster, svc::ServiceNodeConfig{});
    sim::Engine& eng = cluster->engine();
    svc::ServiceHost& sh = *host;

    std::vector<Shape> shapes;
    std::vector<sim::Cycle> gaps;
    for (int b = 0; b < blocks; ++b) {
      for (std::uint64_t reps = 8; reps <= 32; ++reps) {
        shapes.push_back({true, 1, reps});
        for (int w = 1; w <= 3; ++w) shapes.push_back({false, w, reps});
      }
      for (sim::Cycle g = 0; g < 100; ++g) gaps.push_back(g * 600);
    }
    sim::Rng rng(seed, "suite.jobstream");
    shuffle(shapes, rng);
    shuffle(gaps, rng);

    sim::Cycle arrival = 0;
    for (int i = 0; i < jobs; ++i) {
      const Shape& shape = shapes[static_cast<std::size_t>(i)];
      svc::JobDesc jd;
      jd.name = "job" + std::to_string(i);
      jd.kernel = shape.fwk ? rt::KernelKind::kFwk : rt::KernelKind::kCnk;
      jd.nodes = shape.width;
      jd.exe = workImage(i, shape.reps, kPerRep);
      jd.estCycles = shape.reps * kPerRep + 120'000;
      arrival += gaps[static_cast<std::size_t>(i)];
      eng.scheduleAt(arrival, [&sh, jd, &submitted, tr] {
        Scope span(tr, Label::kSvcSubmit);
        sh.submit(jd);
        ++submitted;
      });
    }
    const sim::Cycle lastArrival = arrival;

    rt::Cluster& cl = *cluster;
    eng.scheduleAt(kFailCycle, [&cl, &sh] {
      cl.kernelOn(kFailNode).logRas(kernel::RasEvent::Code::kNodeFailure,
                                    kernel::RasEvent::Severity::kFatal, 0, 0,
                                    0xFA11);
      if (sh.alive()) sh.node().poke();
    });

    // ServiceHost::scheduleCrashRestart's two events, spelled out so the
    // restart can carry a span.
    sim::Rng crng(seed, "svc-crash");
    for (int i = 0; i < crashes; ++i) {
      const sim::Cycle at = 200'000 + crng.nextBelow(lastArrival + 2'000'000);
      eng.scheduleAt(at, [&eng, &sh, tr] {
        sh.crash();
        eng.schedule(kRestartDelay, [&sh, tr] {
          Scope span(tr, Label::kSvcRestart);
          sh.restart();
        });
      });
    }
  }
  r.setupSec = secondsSince(t0);
  RuntimeHooks hooks(*cluster, tr);

  svc::CheckpointStore& store = host->store();
  std::uint64_t saves = 0;
  std::uint64_t bytesWritten = 0;
  const auto classify = [&store, &saves, &bytesWritten] {
    if (store.saves() == saves) return Label::kHwCore;
    bytesWritten += (store.saves() - saves) * store.lastImageBytes();
    saves = store.saves();
    return Label::kSvcCkpt;
  };
  const auto done = [&] { return submitted == jobs && host->drained(); };
  const Clock::time_point t1 = Clock::now();
  host->start();
  const bool drained =
      tr == nullptr ? cluster->engine().runWhile(done, kEventLimit)
                    : tr->runEvents(cluster->engine(), classify, done,
                                    kEventLimit);
  r.hostSec = secondsSince(t1);
  if (!drained) r.violations.push_back("job stream did not drain");

  r.simCycles = cluster->engine().now();
  const svc::SvcMetrics m = host->metrics();
  r.digest = m.scheduleHash;
  if (drained) {
    const std::vector<svc::JobRecord>& recs = host->node().jobs();
    if (recs.size() != static_cast<std::size_t>(jobs)) {
      r.violations.push_back(std::to_string(recs.size()) + " jobs recorded, " +
                             std::to_string(jobs) + " submitted");
    }
    for (const svc::JobRecord& jr : recs) {
      if (jr.state != svc::JobState::kCompleted) {
        ++r.opsFailed;
        continue;
      }
      r.opCycles.push_back(jr.endCycle - jr.submitCycle);
    }
    if (r.opsFailed > 0) {
      r.violations.push_back(std::to_string(r.opsFailed) +
                             " jobs did not complete");
    }
  } else {
    r.opsFailed = static_cast<std::uint64_t>(jobs);
  }
  if (tr != nullptr) {
    r.layers = layerMetrics(*cluster, hooks,
                            SvcCounts{m.jobsCompleted, m.jobsFailed,
                                      host->restarts(), store.saves(),
                                      bytesWritten});
  }
  return r;
}

// --- ckpt_io --------------------------------------------------------------

struct CkptIoInputs {
  int rounds;
  int chunks;  // file writes per round
  std::int64_t chunkBytes = 0;
  std::int64_t stampBase = 0;
  std::uint64_t computeCycles = 0;
  std::uint64_t skew = 0;  // extra compute per rank
  int mappings = 0;        // small anonymous mmaps the image carries
};

/// Per round: compute (plus rank x `skew`), append `chunks` stamped
/// chunks to this rank's
/// file through fship (open, writes, close), dirty a fresh 64 KB
/// heap granule, ckpt_save. Then read the whole file back, summing each
/// chunk's stamp. Every file call and every ckpt_save is bracketed by
/// readTb; a ckpt_save that returns 1 (resumed from the image) is not
/// sampled, since its start time belongs to the previous launch. The
/// last two samples are the stamp sum and the failed-call count.
vm::Program ckptIoProgram(const CkptIoInputs& in) {
  using vm::Reg;
  constexpr Reg rBuf = 16, rFd = 17, rT0 = 18, rT1 = 19, rTmp = 20,
                rRound = 21, rGranule = 22, rFill = 23, rFails = 24,
                rAcc = 25, rStamp = 26, rChunk = 27, rRet = 28, rBit = 29,
                rRank = 30;
  constexpr std::int64_t kGranule = 64 << 10;  // ckpt::kChunkBytes
  constexpr std::int64_t kWrite = 4096, kRead = 16384;
  vm::ProgramBuilder b("ckpt_io");

  const auto timed = [&](auto&& call) {
    b.readTb(rT0);
    call();
    b.mov(rRet, vm::kRetReg);
    b.readTb(rT1);
    b.sub(rTmp, rT1, rT0);
    b.sample(rTmp);
    countFailure(b, rFails, rRet, rBit);
  };
  const auto openFile = [&](std::uint64_t flags) {
    timed([&] {
      b.mov(1, rBuf);
      b.li(2, static_cast<std::int64_t>(flags));
      b.syscall(sys(kernel::Sys::kOpen));
    });
    b.mov(rFd, rRet);
  };
  const auto closeFile = [&] {
    timed([&] {
      b.mov(1, rFd);
      b.syscall(sys(kernel::Sys::kClose));
    });
  };

  b.mov(rBuf, 10);
  b.mov(rRank, 1);
  // Path "/tmp/io.<rank digit>" at heap offset 0.
  std::uint64_t prefix = 0;
  const char kPrefix[] = "/tmp/io.";
  for (int i = 0; i < 8; ++i) {
    prefix |= static_cast<std::uint64_t>(static_cast<unsigned char>(kPrefix[i]))
              << (8 * i);
  }
  b.li(rTmp, static_cast<std::int64_t>(prefix));
  b.store(rBuf, rTmp, 0);
  b.addi(rTmp, rRank, '0');
  b.store(rBuf, rTmp, 8);
  b.li(rTmp, 1'000'000);
  b.mul(rStamp, rRank, rTmp);
  b.addi(rStamp, rStamp, in.stampBase);
  b.li(rFails, 0);
  b.li(rAcc, 0);
  for (int m = 0; m < in.mappings; ++m) {
    b.li(1, 0);
    b.li(2, 4096);
    b.li(3, static_cast<std::int64_t>(kernel::kProtRead | kernel::kProtWrite));
    b.li(4, static_cast<std::int64_t>(kernel::kMapPrivate |
                                      kernel::kMapAnonymous));
    b.syscall(sys(kernel::Sys::kMmap));
    countFailure(b, rFails, vm::kRetReg, rBit);
  }
  // Grow brk so the granule cursor stays inside the valid heap.
  b.li(1, 0);
  b.syscall(sys(kernel::Sys::kBrk));
  b.mov(rGranule, vm::kRetReg);
  b.addi(1, vm::kRetReg, (in.rounds + 1) * kGranule);
  b.syscall(sys(kernel::Sys::kBrk));
  b.li(rFill, 0x5a5a5a5a);

  const auto round = b.loopBegin(rRound, in.rounds);
  b.compute(in.computeCycles);
  computeSkew(b, rRank, 3, in.skew, rTmp);
  openFile(kernel::kOWronly | kernel::kOCreat | kernel::kOAppend);
  const auto chunk = b.loopBegin(rChunk, in.chunks);
  b.store(rBuf, rStamp, kWrite);
  b.addi(rStamp, rStamp, 1);
  timed([&] {
    b.mov(1, rFd);
    b.addi(2, rBuf, kWrite);
    b.li(3, in.chunkBytes);
    b.syscall(sys(kernel::Sys::kWrite));
  });
  b.loopEnd(rChunk, chunk);
  closeFile();
  b.store(rGranule, rFill, 0);
  b.addi(rGranule, rGranule, kGranule);
  b.readTb(rT0);
  b.syscall(sys(kernel::Sys::kCkptSave));
  b.mov(rRet, vm::kRetReg);
  b.readTb(rT1);
  countFailure(b, rFails, rRet, rBit);
  const std::size_t resumed = b.emitForwardBranch(vm::Op::kBnez, rRet);
  b.sub(rTmp, rT1, rT0);
  b.sample(rTmp);
  b.patchHere(resumed);
  b.loopEnd(rRound, round);

  openFile(kernel::kORdonly);
  const auto back = b.loopBegin(rChunk, in.rounds * in.chunks);
  timed([&] {
    b.mov(1, rFd);
    b.addi(2, rBuf, kRead);
    b.li(3, in.chunkBytes);
    b.syscall(sys(kernel::Sys::kRead));
  });
  b.load(rTmp, rBuf, kRead);
  b.add(rAcc, rAcc, rTmp);
  b.loopEnd(rChunk, back);
  closeFile();
  b.sample(rAcc);
  b.sample(rFails);
  b.li(vm::kArg0, 0);
  b.syscall(sys(kernel::Sys::kExit));
  return std::move(b).build();
}

Rep runCkptIo(std::uint64_t seed, bool smoke, Tracer* tr) {
  constexpr int kNodes = 4;  // one pset, one CIOD
  // 28 writes per round keep the checkpoints above 1% of the ops, so
  // the p99 op is a checkpoint.
  CkptIoInputs in = smoke ? CkptIoInputs{2, 4} : CkptIoInputs{8, 28};
  Rep r;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<rt::Cluster> cluster;
  kernel::JobSpec job;
  std::vector<std::vector<std::uint64_t>> first(kNodes), resumed(kNodes);
  {
    Scope s(tr, Label::kRtSetup);
    // The seed picks the stamps, the chunk size (4032..4088 bytes),
    // small compute offsets and 1..8 spare mappings, which change each
    // image by a few bytes.
    sim::Rng rng(seed, "suite.ckpt_io");
    in.stampBase = 1 + static_cast<std::int64_t>(rng.nextBelow(1000));
    in.chunkBytes = 4032 + 8 * static_cast<std::int64_t>(rng.nextBelow(8));
    in.computeCycles = 20'000 + rng.nextBelow(256);
    in.skew = 1'000 + rng.nextBelow(1'000);
    in.mappings = 1 + static_cast<int>(rng.nextBelow(8));
    rt::ClusterConfig cfg;
    cfg.computeNodes = kNodes;
    cfg.seed = seed;
    // The image build scans every writable region, whose size follows
    // node memory; 128 MB keeps a commit near 0.1 s of host time with
    // the same images and simulated timing as the 512 MB default.
    cfg.node.memBytes = 128ULL << 20;
    job.exe = kernel::ElfImage::makeExecutable("ckpt_io", ckptIoProgram(in));
    cluster = std::make_unique<rt::Cluster>(cfg);
  }
  r.setupSec = secondsSince(t0);
  RuntimeHooks hooks(*cluster, tr);

  CkptProbe ckpt(*cluster);
  Moved io, net;
  const auto classify = [&] {
    if (ckpt.advanced()) return Label::kCnkCkpt;
    if (io(cluster->ciodTotals().requests)) return Label::kIoFship;
    return net(netTraffic(cluster->machine())) ? Label::kHwNet
                                               : Label::kHwCore;
  };
  const auto launch = [&](std::vector<std::vector<std::uint64_t>>& sinks,
                          bool restore) {
    for (int n = 0; n < kNodes; ++n) {
      cluster->cnkOn(n)->unloadJob();
      cluster->attachSamples(n, 0, &sinks[static_cast<std::size_t>(n)]);
    }
    job.restore = restore;
    return loadJob(*cluster, tr, job) && runJob(*cluster, tr, classify);
  };
  const Clock::time_point t1 = Clock::now();
  const bool ok = bootAll(*cluster, tr, classify) && launch(first, false) &&
                  launch(resumed, true);
  r.hostSec = secondsSince(t1);
  if (!ok) r.violations.push_back("boot or ckpt_io launch did not complete");

  r.simCycles = cluster->engine().now();
  const std::size_t perRound = static_cast<std::size_t>(in.chunks) + 3;
  const std::size_t readBack =
      static_cast<std::size_t>(in.rounds * in.chunks) + 2;
  const std::size_t firstOps =
      static_cast<std::size_t>(in.rounds) * perRound + readBack;
  const std::uint64_t perRank =
      static_cast<std::uint64_t>(in.rounds * in.chunks);
  sim::Fnv1a h;
  for (int n = 0; n < kNodes; ++n) {
    const std::string who = "rank " + std::to_string(n);
    const auto& a = first[static_cast<std::size_t>(n)];
    const auto& b = resumed[static_cast<std::size_t>(n)];
    for (const auto* s : {&a, &b}) {
      h.mix(s->size());
      for (std::uint64_t v : *s) h.mix(v);
    }
    const bool countsOk = checkCount(r, a, firstOps + 2, who + " first launch") &&
                          checkCount(r, b, readBack + 2, who + " restored launch");
    if (!countsOk) {
      r.opsFailed += firstOps + readBack;
      continue;
    }
    r.opCycles.insert(r.opCycles.end(), a.begin(), a.end() - 2);
    r.opCycles.insert(r.opCycles.end(), b.begin(), b.end() - 2);
    r.opsFailed += a.back() + b.back();
    const std::uint64_t base =
        static_cast<std::uint64_t>(n) * 1'000'000 +
        static_cast<std::uint64_t>(in.stampBase);
    const std::uint64_t stamps = perRank * base + perRank * (perRank - 1) / 2;
    if (a[a.size() - 2] != stamps) {
      r.violations.push_back(who + ": read-back stamp sum mismatch");
    }
    if (b[b.size() - 2] != a[a.size() - 2]) {
      r.violations.push_back(who + ": restored output differs from the "
                                   "uninterrupted run");
    }
  }
  std::uint64_t commits = 0, restores = 0;
  for (int n = 0; n < kNodes; ++n) {
    const cnk::CnkKernel* k = cluster->cnkOn(n);
    commits += k->ckptCommits();
    restores += k->ckptRestores();
    h.mix(k->lastCkptBytes());
  }
  if (commits != static_cast<std::uint64_t>(kNodes * in.rounds) ||
      restores != kNodes) {
    r.violations.push_back("checkpoint commits " + std::to_string(commits) +
                           ", restores " + std::to_string(restores));
  }
  h.mix(commits);
  h.mix(restores);
  mixRas(h, *cluster);
  r.digest = h.digest();
  if (tr != nullptr) r.layers = layerMetrics(*cluster, hooks, {});
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"fwq_boot", runFwqBoot},
      {"comm", runComm},
      {"jobstream", runJobstream},
      {"ckpt_io", runCkptIo},
  };
  return kAll;
}

}  // namespace bg::suite
