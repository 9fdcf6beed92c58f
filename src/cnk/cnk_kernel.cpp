#include "cnk/cnk_kernel.hpp"

#include <algorithm>
#include <cassert>

#include "cnk/coredump.hpp"
#include "io/vfs.hpp"

namespace bg::cnk {

using kernel::JobSpec;
using kernel::Process;
using kernel::Sys;
using kernel::Thread;
using hw::HandlerResult;

CnkKernel::CnkKernel(hw::Node& node, Config cfg)
    : KernelBase(node),
      cfg_(cfg),
      sched_(node.numCores(), cfg.maxThreadsPerCore),
      pendingGuard_(static_cast<std::size_t>(node.numCores())) {
  fship_ = std::make_unique<FshipClient>(*this, cfg_.ioNodeNetId,
                                         cfg_.fship);
  fship_->attach();
  linker_ = std::make_unique<Linker>(*this);
  clockStop_ = std::make_unique<hw::ClockStop>(node);
  // Persistent pool sits at the top of physical memory.
  const std::uint64_t poolBase = node.mem().size() - cfg_.persistPoolBytes;
  persist_.configurePool(poolBase, cfg_.persistPoolBytes, kPersistVBase);
}

CnkKernel::~CnkKernel() = default;

std::vector<kernel::BootPhase> CnkKernel::bootPhases() const {
  // Calibrated so that at the 10Hz VHDL-simulator rate of §III, a CNK
  // boot takes "a couple of hours" (~100K cycles / 10 Hz ~ 2.8h).
  return {
      {"firmware handoff / boot SRAM", 8'000},
      {"core + FPU init", 12'000},
      {"L2/L3 cache config", 9'000},
      {"DDR controller init", 15'000},
      {"torus/collective/barrier unit init", 18'000},
      {"static TLB map construction", 6'000},
      {"personality + service-node handshake", 20'000},
      {"runtime/CIOD channel init", 12'000},
  };
}

std::shared_ptr<kernel::ElfImage> CnkKernel::libImage(
    const std::string& name) const {
  auto it = libImages_.find(name);
  return it == libImages_.end() ? nullptr : it->second;
}

void CnkKernel::installRegionOnCores(const kernel::MemRegionDesc& r,
                                     std::uint32_t pid,
                                     const std::vector<int>& cores) {
  if (r.size == 0) return;
  const auto entries = tlbEntriesFor(r, pid);
  for (int c : cores) {
    for (const hw::TlbEntry& e : entries) {
      node_.core(c).mmu().install(e);
    }
  }
}

bool CnkKernel::loadJob(const JobSpec& spec) {
  if (!booted_ || spec.exe == nullptr) return false;

  PartitionRequest req;
  req.physBase = cfg_.kernelReservedBytes;
  req.physSize =
      node_.mem().size() - cfg_.kernelReservedBytes - cfg_.persistPoolBytes;
  req.processes = spec.processes;
  req.textBytes = spec.exe->textBytes();
  req.dataBytes = spec.exe->dataBytes();
  req.sharedBytes = spec.sharedMemBytes;
  const PartitionResult part = partitionMemory(req);
  if (!part.ok) return false;

  for (const auto& lib : spec.libs) libImages_[lib->name()] = lib;

  const int coresPerProc =
      std::max(1, node_.numCores() / std::max(1, spec.processes));

  // Per-job checkpoint identity: any in-flight attempt from a previous
  // job is already torn down (unloadJob), and the sequence space
  // restarts per job. A restoring load advances it again from the
  // applied image's sequence.
  ckpt_.jobId = spec.jobId;
  ckpt_.firstRank = spec.firstRank;
  ckpt_.nextSeq = 1;
  ckpt_.committedSeq = 0;
  std::vector<Process*> newProcs;

  for (int i = 0; i < spec.processes; ++i) {
    const ProcLayout& lay = part.procs[static_cast<std::size_t>(i)];
    const std::uint32_t pid = allocPid();
    auto proc = std::make_unique<Process>(pid, spec.exe);
    Process& p = *proc;
    p.rank = spec.firstRank + i;
    p.nodeId = node_.id();
    p.regions = {lay.text, lay.data, lay.heapStack};
    if (lay.shared.size > 0) p.regions.push_back(lay.shared);

    // Copy the real text image into place and zero data.
    const auto& text = spec.exe->textContents();
    if (!text.empty()) node_.mem().write(lay.text.pbase, text);
    node_.mem().zero(lay.data.pbase, lay.data.size);

    // Heap/stack internal layout: brk zone low, mmap zone above it,
    // main stack at the very top (Fig 3).
    const hw::VAddr hsBase = lay.heapStack.vbase;
    const hw::VAddr hsEnd = lay.heapStack.vbase + lay.heapStack.size;
    p.heapBase = hsBase;
    // Initial brk leaves the program a 1MB scratch arena, so the
    // heap-boundary guard starts above it.
    p.brk = hsBase + (1ULL << 20);
    p.heapLimit = hsBase + lay.heapStack.size / 2;
    p.stackTop = hsEnd;
    p.sharedBase = lay.shared.size > 0 ? lay.shared.vbase : 0;
    mmap_[pid].reset(p.heapLimit, hsEnd - cfg_.mainStackBytes);

    // Core assignment: contiguous blocks (VN mode: one core each; SMP:
    // all cores to the single process).
    std::vector<int> cores;
    for (int c = i * coresPerProc;
         c < (i + 1) * coresPerProc && c < node_.numCores(); ++c) {
      cores.push_back(c);
    }
    if (spec.processes == 1) {
      cores.clear();
      for (int c = 0; c < node_.numCores(); ++c) cores.push_back(c);
    }
    procCores_[pid] = cores;

    installRegionOnCores(lay.text, pid, cores);
    installRegionOnCores(lay.data, pid, cores);
    installRegionOnCores(lay.heapStack, pid, cores);
    if (lay.shared.size > 0) installRegionOnCores(lay.shared, pid, cores);

    // Import persistent regions requested by the job.
    for (const std::string& name : spec.persistentRegions) {
      auto r = persist_.openOrCreate(name, hw::kPage1M, cfg_.jobUid);
      if (r) {
        kernel::MemRegionDesc d;
        d.name = "persist:" + name;
        d.vbase = r->vbase;
        d.pbase = r->pbase;
        d.size = r->size;
        d.perms = hw::kPermRW;
        d.pageSize = r->pageSize;
        p.regions.push_back(d);
        installRegionOnCores(d, pid, cores);
      }
    }

    // Main thread.
    Thread& main = p.addThread(allocTid());
    main.ctx.prog = &spec.exe->program();
    main.ctx.pc = 0;
    main.ctx.regs[1] = static_cast<std::uint64_t>(p.rank);
    main.ctx.regs[2] = 1;  // npes; the cluster harness overwrites this
    main.ctx.regs[10] = p.heapBase;
    main.ctx.regs[11] = p.stackTop;
    main.ctx.regs[12] = p.sharedBase;
    main.ctx.regs[13] = lay.data.vbase;
    main.ctx.regs[14] = p.heapLimit;
    main.ctx.state = hw::ThreadState::kReady;
    if (sampleSink_) main.ctx.samples = sampleSink_(p, 0);

    // Main-thread guard page at the heap boundary (Fig 4).
    main.guardLo = p.brk;
    main.guardHi = p.brk + cfg_.guardBytes;

    sched_.assign(main, cores.front());
    newProcs.push_back(&p);
    processes_.push_back(std::move(proc));
  }

  const bool restoring = spec.restore && cfg_.ioNodeNetId >= 0;
  if (restoring) {
    // Hold every main thread at the gate: the cores below get kicked
    // but find nothing runnable, and the restore chain (or its scratch
    // fallback) releases them.
    for (Process* p : newProcs) {
      if (Thread* m = p->mainThread()) {
        m->ctx.state = hw::ThreadState::kBlocked;
        m->ctx.yieldOnBlock = false;
      }
    }
  }

  for (auto& [pid, cores] : procCores_) {
    for (int c : cores) node_.core(c).kick();
  }
  logRas(kernel::RasEvent::Code::kJobLoaded,
         processes_.empty() ? 0 : processes_.back()->pid(), 0,
         static_cast<std::uint64_t>(spec.processes));

  if (restoring) {
    ckpt_.restorePending = true;
    restoreFromImageFile([this, newProcs](bool ok) {
      if (ok) return;  // threads resumed from the image, cores kicked
      // Scratch fallback: release the gate and run from the entry
      // point — a missing or torn image is never a wedge.
      for (Process* p : newProcs) {
        if (Thread* m = p->mainThread()) {
          if (m->ctx.state == hw::ThreadState::kBlocked) {
            m->ctx.state = hw::ThreadState::kReady;
            m->ctx.yieldOnBlock = true;
          }
        }
        for (int c : procCores_[p->pid()]) node_.core(c).kick();
      }
    });
  }
  return true;
}

void CnkKernel::unloadJob() {
  // Drop in-flight shipped I/O first: pending completions hold Thread
  // pointers that are about to be freed, and their watchdog timers
  // must not fire into a torn-down job.
  fship_->reset();
  // Abandon any in-flight checkpoint attempt or restore chain without
  // resolving it: the waiter threads are being destroyed and a
  // service-side requester resolves through its own deadline. The
  // lifetime counters and a committed on-disk image survive.
  ++ckpt_.gen;
  ckpt_.inProgress = false;
  ckpt_.restorePending = false;
  ckpt_.repolls = 0;
  ckpt_.waiters.clear();
  ckpt_.done = nullptr;
  for (auto& p : processes_) {
    for (const int c : procCores_[p->pid()]) {
      node_.core(c).mmu().invalidate(p->pid());
      node_.core(c).bind(nullptr);
    }
  }
  sched_.clear();
  processes_.clear();
  mmap_.clear();
  procCores_.clear();
  remoteProcOfCore_.clear();
  panicked_ = false;  // scrub/reboot path: the node may serve again
  // persist_ and its DRAM contents deliberately survive (§IV-D).
}

std::optional<hw::PAddr> CnkKernel::resolveUser(Process& p, hw::VAddr va) {
  return p.resolveStatic(va);
}

// ---------------------------------------------------------------------------
// Syscalls
// ---------------------------------------------------------------------------

hw::HandlerResult CnkKernel::syscall(hw::Core& core, hw::ThreadCtx& ctx,
                                     const hw::SyscallArgs& args) {
  Thread& t = threadOf(ctx);
  // getcwd must reflect the ioproxy's mirrored state (chdir is
  // function-shipped, so the authoritative cwd lives there) — route it
  // around the local-state common handler.
  if (static_cast<Sys>(args.nr) == Sys::kGetcwd) {
    return fship_->ship(t, io::FsOp::kGetcwd, 0, 0, 0, {}, {}, args.arg[0],
                        args.arg[1]);
  }
  if (auto r = commonSyscall(core, t, args)) {
    r->cost += cfg_.syscallBaseCost;
    return *r;
  }
  const sim::Cycle base = cfg_.syscallBaseCost;
  switch (static_cast<Sys>(args.nr)) {
    case Sys::kExit:
    case Sys::kExitGroup:
      return HandlerResult::halt(base);
    case Sys::kBrk:
      return sysBrk(t, args.arg[0]);
    case Sys::kMmap:
      return sysMmap(t, args);
    case Sys::kMunmap:
      return sysMunmap(t, args);
    case Sys::kMprotect:
      return sysMprotect(t, args);
    case Sys::kClone:
      return sysClone(core, t, args);
    case Sys::kFutex:
      return sysFutex(t, args);
    case Sys::kSchedYield: {
      // Rare in HPC; reschedule among the core's slot threads.
      t.ctx.state = hw::ThreadState::kReady;
      return HandlerResult::resched(base + 30);
    }
    case Sys::kNanosleep: {
      // CNK has no timer tick: a sleeping thread simply spins for the
      // requested duration (arg0 in microseconds).
      const sim::Cycle spin = sim::usToCycles(
          static_cast<double>(args.arg[0]));
      return HandlerResult::done(0, base + spin);
    }
    case Sys::kVirt2Phys: {
      // User-space DMA support: query the static map (§V-C). This is
      // the capability vanilla Linux cannot cheaply offer.
      const auto pa = resolveUser(t.proc, args.arg[0]);
      if (!pa) {
        return HandlerResult::done(
            static_cast<std::uint64_t>(-kernel::kEFAULT), base);
      }
      return HandlerResult::done(*pa, base + 20);
    }
    case Sys::kGetMemRegions:
      return HandlerResult::done(t.proc.regions.size(), base + 15);
    case Sys::kPersistOpen:
      return sysPersistOpen(t, args);
    case Sys::kRasEvent: {
      // Precise machine-check delivery: log the RAS event and signal
      // the calling thread immediately (the application's recovery
      // handler runs before anything else executes — §V-B).
      // Recoverable by construction (the handler scrubs and resumes),
      // so the control system sees a warning, not a node loss.
      logRas(kernel::RasEvent::Code::kMachineCheck,
             kernel::RasEvent::Severity::kWarn, t.proc.pid(), t.ctx.tid,
             t.ctx.pc);
      const sim::Cycle c = deliverSignal(t, kernel::kSigBus, t.ctx.pc);
      return HandlerResult::done(0, base + 200 + c);
    }
    case Sys::kClockStop: {
      // arg0 = absolute cycle to stop at (0 disarms).
      if (args.arg[0] == 0) {
        clockStop_->disarm();
        return HandlerResult::done(0, base + 25);
      }
      const bool ok = clockStop_->armAt(args.arg[0]);
      return HandlerResult::done(
          ok ? 0 : static_cast<std::uint64_t>(-kernel::kEINVAL),
          base + 25);
    }
    case Sys::kCkptSave:
      return sysCkptSave(t);
    case Sys::kCkptRestore:
      return sysCkptRestore(t);
    case Sys::kRead:
    case Sys::kWrite:
    case Sys::kOpen:
    case Sys::kClose:
    case Sys::kLseek:
    case Sys::kStat:
    case Sys::kUnlink:
    case Sys::kMkdir:
    case Sys::kChdir:
    case Sys::kDup:
      return sysFileIo(t, args);
    default:
      return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kENOSYS),
                                 base);
  }
}

hw::HandlerResult CnkKernel::sysBrk(Thread& t, std::uint64_t newBrk) {
  Process& p = t.proc;
  const sim::Cycle base = cfg_.syscallBaseCost;
  if (newBrk == 0) return HandlerResult::done(p.brk, base + 10);
  if (newBrk < p.heapBase || newBrk > p.heapLimit) {
    return HandlerResult::done(p.brk, base + 10);  // Linux brk semantics
  }
  const bool growing = newBrk > p.brk;
  p.brk = newBrk;
  sim::Cycle cost = base + 25;
  if (growing) {
    // The heap boundary moved: the main-thread guard must follow it.
    // If the caller is not on the main thread's core, this takes an
    // IPI to reposition the DAC registers there (paper §IV-C).
    Thread* main = p.mainThread();
    if (main != nullptr && newBrk + cfg_.guardBytes > main->guardLo) {
      main->guardLo = p.brk;
      main->guardHi = p.brk + cfg_.guardBytes;
      const int mainCore = main->ctx.coreAffinity;
      if (mainCore >= 0 && mainCore != t.ctx.coreAffinity) {
        pendingGuard_[static_cast<std::size_t>(mainCore)] = {
            main->guardLo, main->guardHi};
        ++ipisSent_;
        node_.sendIpi(mainCore);
        cost += 60;
      } else if (mainCore >= 0) {
        applyGuardDac(node_.core(mainCore), *main);
        cost += 20;
      }
    }
  }
  return HandlerResult::done(p.brk, cost);
}

hw::HandlerResult CnkKernel::sysMmap(Thread& t, const hw::SyscallArgs& a) {
  Process& p = t.proc;
  MmapTracker& mt = mmap_[p.pid()];
  const std::uint64_t len = a.arg[1];
  const std::uint64_t flags = a.arg[3];
  const sim::Cycle base = cfg_.syscallBaseCost;

  if (len == 0) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEINVAL),
                               base);
  }

  if (flags & kernel::kMapAnonymous) {
    std::optional<hw::VAddr> addr;
    if (flags & kernel::kMapFixed) {
      if (mt.allocFixed(a.arg[0], len)) addr = a.arg[0];
    } else {
      addr = mt.alloc(len);
    }
    if (!addr) {
      return HandlerResult::done(
          static_cast<std::uint64_t>(-kernel::kENOMEM), base + 40);
    }
    // No page faults, no zeroing-on-fault: the static map means mmap
    // "merely provides free addresses" (§IV-C). Memory content at the
    // address is whatever physical memory held (zeroed at job load).
    return HandlerResult::done(*addr, base + 60);
  }

  // File-backed mmap: CNK copies in the data eagerly and allows only
  // read access (§VI-A). Implemented as a function-shipped read into
  // the allocated range.
  const auto addr = mt.alloc(len);
  if (!addr) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kENOMEM),
                               base + 40);
  }
  const std::uint64_t fd = a.arg[4];
  Thread* tp = &t;
  CnkKernel* self = this;
  const hw::VAddr mapped = *addr;
  const sim::Cycle cost = fship_->shipRaw(
      io::FsOp::kRead, t.ctx.pid, t.ctx.tid, fd, len, 0, {}, {},
      [self, tp, mapped, len](io::FsReply&& rep) {
        if (rep.result > 0) {
          const std::size_t n = std::min<std::size_t>(
              rep.payload.size(), static_cast<std::size_t>(len));
          self->copyToUser(tp->proc, mapped,
                           std::span(rep.payload.data(), n));
          self->wakeThread(*tp, mapped);
        } else {
          self->mmap_[tp->proc.pid()].free(mapped,
                                           hw::alignUp(len, 4096));
          self->wakeThread(
              *tp, static_cast<std::uint64_t>(-kernel::kEACCES));
        }
      });
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return HandlerResult::blocked(base + cost);
}

hw::HandlerResult CnkKernel::sysMunmap(Thread& t, const hw::SyscallArgs& a) {
  MmapTracker& mt = mmap_[t.proc.pid()];
  const bool ok = mt.free(a.arg[0], hw::alignUp(a.arg[1], 4096));
  return HandlerResult::done(
      ok ? 0 : static_cast<std::uint64_t>(-kernel::kEINVAL),
      cfg_.syscallBaseCost + 50);
}

hw::HandlerResult CnkKernel::sysMprotect(Thread& t,
                                         const hw::SyscallArgs& a) {
  Process& p = t.proc;
  // CNK does not change hardware permissions (static map); it records
  // the range. NPTL calls mprotect(PROT_NONE) on the stack guard just
  // before clone, and CNK "remembers the last mprotect range and
  // assumes it applies to the new thread" (§IV-C).
  p.lastMprotectAddr = a.arg[0];
  p.lastMprotectLen = a.arg[1];
  mmap_[p.pid()].setProt(a.arg[0], a.arg[1],
                         static_cast<std::uint8_t>(a.arg[2] & 7));
  return HandlerResult::done(0, cfg_.syscallBaseCost + 30);
}

hw::HandlerResult CnkKernel::sysClone(hw::Core& core, Thread& t,
                                      const hw::SyscallArgs& a) {
  Process& p = t.proc;
  const std::uint64_t flags = a.arg[0];
  const sim::Cycle base = cfg_.syscallBaseCost;

  // Validate against the static NPTL flag set (§IV-B1). CNK supports
  // thread creation only — no fork/exec (§VII-B).
  if (flags != kernel::kNptlCloneFlags) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEINVAL),
                               base + 20);
  }

  // Pick a core: prefer this process's own cores; under the §VIII
  // extension a core designated to accept this process remotely also
  // qualifies.
  std::vector<int> candidates = procCores_[p.pid()];
  if (cfg_.remoteThreadExtension) {
    for (const auto& [c, pid] : remoteProcOfCore_) {
      if (pid == p.pid() &&
          std::find(candidates.begin(), candidates.end(), c) ==
              candidates.end()) {
        candidates.push_back(c);
      }
    }
  }
  int target = -1;
  for (int c : candidates) {
    if (static_cast<int>(sched_.threadCount(c)) <
        sched_.maxThreadsPerCore()) {
      // Prefer an idle core for the first thread on it.
      if (sched_.threadCount(c) == 0) {
        target = c;
        break;
      }
      if (target < 0) target = c;
    }
  }
  if (target < 0) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEAGAIN),
                               base + 30);
  }

  Thread& child = p.addThread(allocTid());
  child.ctx.prog = t.ctx.prog;
  child.ctx.pc = a.arg[5];  // start pc (set up by the pthread runtime)
  for (int i = 0; i < vm::kNumRegs; ++i) child.ctx.regs[i] = t.ctx.regs[i];
  child.ctx.regs[vm::kRetReg] = 0;  // clone returns 0 in the child
  child.ctx.regs[1] = a.arg[4];     // TLS pointer = thread argument
  child.ctx.state = hw::ThreadState::kReady;
  child.ctx.samples =
      sampleSink_
          ? sampleSink_(p, static_cast<int>(p.threads().size()) - 1)
          : nullptr;

  if (flags & kernel::kCloneChildCleartid) child.clearChildTid = a.arg[3];
  if (flags & kernel::kCloneParentSettid) {
    const auto pa = resolveUser(p, a.arg[2]);
    if (pa) node_.mem().write64(*pa, child.ctx.tid);
  }

  // Guard range: the last mprotect is assumed to cover the new
  // thread's stack guard (§IV-C).
  if (p.lastMprotectLen > 0) {
    child.guardLo = p.lastMprotectAddr;
    child.guardHi = p.lastMprotectAddr + p.lastMprotectLen;
    p.lastMprotectLen = 0;
  }

  sched_.assign(child, target);
  node_.core(target).kick();
  (void)core;
  return HandlerResult::done(child.ctx.tid, base + 400);
}

hw::HandlerResult CnkKernel::sysFutex(Thread& t, const hw::SyscallArgs& a) {
  const hw::VAddr uaddr = a.arg[0];
  const std::uint64_t op = a.arg[1];
  const std::uint64_t val = a.arg[2];
  const sim::Cycle base = cfg_.syscallBaseCost;
  Process& p = t.proc;

  if (op == kernel::kFutexWait) {
    const auto pa = resolveUser(p, uaddr);
    if (!pa) {
      return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEFAULT),
                                 base);
    }
    if (node_.mem().read64(*pa) != val) {
      return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEAGAIN),
                                 base + 30);
    }
    futex_.enqueue(p.pid(), uaddr, &t);
    t.ctx.state = hw::ThreadState::kBlocked;
    t.ctx.yieldOnBlock = true;  // futex blocks DO yield the core (§VI-C)
    return HandlerResult::blocked(base + 60);
  }
  if (op == kernel::kFutexWake) {
    auto woken = futex_.dequeue(p.pid(), uaddr, val == 0 ? 1 : val);
    for (Thread* w : woken) wakeThread(*w, 0);
    return HandlerResult::done(woken.size(), base + 40 + 25 * woken.size());
  }
  return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kENOSYS),
                             base);
}

hw::HandlerResult CnkKernel::sysPersistOpen(Thread& t,
                                            const hw::SyscallArgs& a) {
  Process& p = t.proc;
  const sim::Cycle base = cfg_.syscallBaseCost;
  const auto name = readUserString(p, a.arg[0], 256);
  if (!name) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEFAULT),
                               base);
  }
  const auto r = persist_.openOrCreate(*name, a.arg[1], cfg_.jobUid);
  if (!r) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEACCES),
                               base + 60);
  }
  if (p.regionFor(r->vbase) == nullptr) {
    kernel::MemRegionDesc d;
    d.name = "persist:" + r->name;
    d.vbase = r->vbase;
    d.pbase = r->pbase;
    d.size = r->size;
    d.perms = hw::kPermRW;
    d.pageSize = r->pageSize;
    p.regions.push_back(d);
    installRegionOnCores(d, p.pid(), procCores_[p.pid()]);
  }
  return HandlerResult::done(r->vbase, base + 200);
}

hw::HandlerResult CnkKernel::sysFileIo(Thread& t, const hw::SyscallArgs& a) {
  Process& p = t.proc;
  const sim::Cycle base = cfg_.syscallBaseCost;
  using io::FsOp;
  switch (static_cast<Sys>(a.nr)) {
    case Sys::kWrite: {
      const std::uint64_t fd = a.arg[0];
      const std::uint64_t len = a.arg[2];
      std::vector<std::byte> buf(len);
      if (!copyFromUser(p, a.arg[1], buf)) {
        return HandlerResult::done(
            static_cast<std::uint64_t>(-kernel::kEFAULT), base);
      }
      if (fd == 1 || fd == 2) {
        // Console output: delivered to the host-visible console ring
        // (on real BG/P stdout also ships to CIOD; modelled locally so
        // examples can print without an I/O node configured).
        console_.append(reinterpret_cast<const char*>(buf.data()),
                        buf.size());
        return HandlerResult::done(len, base + 120 + len / 16);
      }
      return fship_->ship(t, FsOp::kWrite, fd, len, 0, {}, std::move(buf));
    }
    case Sys::kRead:
      return fship_->ship(t, FsOp::kRead, a.arg[0], a.arg[2], 0, {}, {},
                          a.arg[1], a.arg[2]);
    case Sys::kOpen: {
      const auto path = readUserString(p, a.arg[0]);
      if (!path) {
        return HandlerResult::done(
            static_cast<std::uint64_t>(-kernel::kEFAULT), base);
      }
      return fship_->ship(t, FsOp::kOpen, a.arg[1], 0, 0, *path, {});
    }
    case Sys::kClose:
      return fship_->ship(t, FsOp::kClose, a.arg[0], 0, 0, {}, {});
    case Sys::kLseek:
      return fship_->ship(t, FsOp::kLseek, a.arg[0], a.arg[1], a.arg[2], {},
                          {});
    case Sys::kStat: {
      const auto path = readUserString(p, a.arg[0]);
      if (!path) {
        return HandlerResult::done(
            static_cast<std::uint64_t>(-kernel::kEFAULT), base);
      }
      return fship_->ship(t, FsOp::kStat, 0, 0, 0, *path, {}, a.arg[1],
                          sizeof(io::FileStat));
    }
    case Sys::kUnlink: {
      const auto path = readUserString(p, a.arg[0]);
      if (!path) {
        return HandlerResult::done(
            static_cast<std::uint64_t>(-kernel::kEFAULT), base);
      }
      return fship_->ship(t, FsOp::kUnlink, 0, 0, 0, *path, {});
    }
    case Sys::kMkdir: {
      const auto path = readUserString(p, a.arg[0]);
      if (!path) {
        return HandlerResult::done(
            static_cast<std::uint64_t>(-kernel::kEFAULT), base);
      }
      return fship_->ship(t, FsOp::kMkdir, 0, 0, 0, *path, {});
    }
    case Sys::kChdir: {
      const auto path = readUserString(p, a.arg[0]);
      if (!path) {
        return HandlerResult::done(
            static_cast<std::uint64_t>(-kernel::kEFAULT), base);
      }
      return fship_->ship(t, FsOp::kChdir, 0, 0, 0, *path, {});
    }
    case Sys::kDup:
      return fship_->ship(t, FsOp::kDup, a.arg[0], 0, 0, {}, {});
    default:
      return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kENOSYS),
                                 base);
  }
}

// ---------------------------------------------------------------------------
// Faults, interrupts, scheduling
// ---------------------------------------------------------------------------

hw::HandlerResult CnkKernel::onTlbMiss(hw::Core& core, hw::ThreadCtx& ctx,
                                       hw::VAddr va, hw::Access access) {
  (void)access;
  // With the static map sized to the TLB there are no steady-state
  // misses; a miss can only be an eviction artifact (refill from the
  // static map) or a genuine wild access.
  Thread& t = threadOf(ctx);
  if (const kernel::MemRegionDesc* r = t.proc.regionFor(va)) {
    const std::uint64_t tile = (va - r->vbase) / r->pageSize;
    hw::TlbEntry e;
    e.pid = t.proc.pid();
    e.vaddr = r->vbase + tile * r->pageSize;
    e.paddr = r->pbase + tile * r->pageSize;
    e.size = r->pageSize;
    e.perms = r->perms;
    e.valid = true;
    core.mmu().install(e);
    ++tlbRefills_;
    return hw::HandlerResult::done(0, 35);
  }
  // Wild access: SIGSEGV (or death).
  logRas(kernel::RasEvent::Code::kSegv, t.proc.pid(), ctx.tid, va);
  const sim::Cycle c = deliverSignal(t, kernel::kSigSegv, ctx.pc + 1);
  return hw::HandlerResult::resched(c);
}

void CnkKernel::applyGuardDac(hw::Core& core, const Thread& t) {
  hw::DacRange& d = core.mmu().dac(0);
  if (t.guardHi > t.guardLo) {
    d.enabled = true;
    d.lo = t.guardLo;
    d.hi = t.guardHi;
    d.onWrite = true;
    d.onRead = true;
  } else {
    d.enabled = false;
  }
}

hw::HandlerResult CnkKernel::onInterrupt(hw::Core& core, hw::Irq irq) {
  switch (irq) {
    case hw::Irq::kDecrementer:
      // CNK never arms the decrementer; a spurious one is ignored.
      return hw::HandlerResult::done(0, 10);
    case hw::Irq::kIpi: {
      // Guard-reposition request from another core (§IV-C).
      auto& pending = pendingGuard_[static_cast<std::size_t>(core.id())];
      if (pending) {
        hw::DacRange& d = core.mmu().dac(0);
        d.enabled = true;
        d.lo = pending->first;
        d.hi = pending->second;
        pending.reset();
      }
      return hw::HandlerResult::done(0, 180);
    }
    case hw::Irq::kExternal:
      return hw::HandlerResult::done(0, 60);
    case hw::Irq::kMachineCheck: {
      hw::McSyndrome syn;
      if (!node_.takeMc(&syn)) {
        // No latched syndrome (every fault plane latches one, so this
        // is defensive): treat it as a recoverable parity error and
        // signal the application so it can recover without a
        // checkpoint/restart cycle (§V-B).
        hw::ThreadCtx* cur = core.current();
        if (cur != nullptr && !cur->done()) {
          Thread& t = threadOf(*cur);
          logRas(kernel::RasEvent::Code::kMachineCheck,
                 kernel::RasEvent::Severity::kWarn, t.proc.pid(), t.ctx.tid,
                 cur->pc);
          const sim::Cycle c =
              deliverSignal(t, kernel::kSigBus, cur->pc);
          return hw::HandlerResult::done(0, 200 + c);
        }
        return hw::HandlerResult::done(0, 200);
      }
      // Hardware latched one or more syndromes; multiple raises
      // collapse into one pending IRQ bit, so drain the whole queue.
      hw::ThreadCtx* cur = core.current();
      const std::uint32_t pid = cur != nullptr ? cur->pid : 0;
      const std::uint32_t tid = cur != nullptr ? cur->tid : 0;
      sim::Cycle cost = 0;
      bool panic = false;
      hw::McSyndrome fatal;
      do {
        switch (syn.kind) {
          case hw::McSyndrome::Kind::kCorrectable:
            // ECC already fixed the data in flight; scrub the word
            // back and count it. Transparent to the application.
            ++eccScrubbed_;
            logRas(kernel::RasEvent::Code::kEccCorrectable,
                   kernel::RasEvent::Severity::kWarn, pid, tid, syn.paddr);
            cost += 120;
            break;
          case hw::McSyndrome::Kind::kParity:
            // L1 parity flip on a clean line: invalidate and refill
            // from L3/DDR. The application never notices (§V-B).
            logRas(kernel::RasEvent::Code::kMachineCheck,
                   kernel::RasEvent::Severity::kWarn, pid, tid, syn.paddr);
            cost += 150;
            break;
          case hw::McSyndrome::Kind::kSpurious:
            ++spuriousMcs_;
            logRas(kernel::RasEvent::Code::kMachineCheck,
                   kernel::RasEvent::Severity::kWarn, 0, 0, 0);
            cost += 80;
            break;
          case hw::McSyndrome::Kind::kUncorrectable:
            panic = true;
            fatal = syn;
            break;
        }
      } while (node_.takeMc(&syn));
      if (panic) cost += panicOnUncorrectable(fatal);
      return hw::HandlerResult::done(0, cost == 0 ? 10 : cost);
    }
  }
  return hw::HandlerResult::done(0, 10);
}

void CnkKernel::onThreadHalt(hw::Core& core, hw::ThreadCtx& ctx) {
  Thread& t = threadOf(ctx);
  const hw::VAddr ctid = t.clearChildTid;
  KernelBase::onThreadHalt(core, ctx);
  if (ctid != 0) {
    // CLONE_CHILD_CLEARTID: the futex wake that completes pthread_join.
    for (Thread* w : futex_.dequeue(t.proc.pid(), ctid, UINT64_MAX)) {
      wakeThread(*w, 0);
    }
  }
  futex_.remove(&t);
  sched_.reapDone();
}

hw::ThreadCtx* CnkKernel::pickNext(hw::Core& core) {
  Thread* t = sched_.pickNext(core.id());
  if (t == nullptr) return nullptr;
  applyGuardDac(core, *t);
  return &t->ctx;
}

sim::Cycle CnkKernel::panicOnUncorrectable(const hw::McSyndrome& syn) {
  if (panicked_) return 50;  // already failing stopped
  panicked_ = true;

  // Attribute the panic to the first live process for triage.
  std::uint32_t pid = 0;
  for (const auto& p : processes_) {
    if (!p->exited) {
      pid = p->pid();
      break;
    }
  }
  logRas(kernel::RasEvent::Code::kEccUncorrectable,
         kernel::RasEvent::Severity::kFatal, pid, 0, syn.paddr);

  // Capture the dump before the fail-stop: registers and thread
  // states as they were at the machine check.
  shipCoredump(buildCoredump(*this, syn, engine().now()));

  // Fail-stop: nothing user-level retires after an uncorrectable
  // error. The service node sees the kFatal, requeues the job
  // elsewhere, and reboots this node in place.
  for (auto& p : processes_) {
    for (const auto& t : p->threads()) {
      if (!t->ctx.done()) killThread(*t);
    }
  }
  return 3000;
}

void CnkKernel::shipCoredump(std::vector<std::byte> bytes) {
  if (cfg_.ioNodeNetId < 0) return;  // no I/O path in this harness
  const std::string path = coredumpPath(node_.id());
  const std::uint64_t size = bytes.size();
  // Kernel-internal chain on the (pid=0, tid=0) control channel,
  // mirroring the linker's open/read/close idiom: mkdir /cores
  // (EEXIST is fine) -> creat -> write at offset 0 -> close. The
  // fship watchdog/retransmit layer underneath makes each leg
  // reliable; CIOD's replay cache dedupes retransmitted writes.
  fship_->shipRaw(
      io::FsOp::kMkdir, 0, 0, 0, 0, 0, "/cores", {},
      [this, path, size, bytes = std::move(bytes)](io::FsReply&&) mutable {
        fship_->shipRaw(
            io::FsOp::kOpen, 0, 0,
            kernel::kOWronly | kernel::kOCreat | kernel::kOTrunc, 0, 0, path,
            {}, [this, size, bytes = std::move(bytes)](io::FsReply&& orep) mutable {
              if (orep.result < 0) return;  // RAS already has the panic
              const auto fd = static_cast<std::uint64_t>(orep.result);
              fship_->shipRaw(
                  io::FsOp::kWrite, 0, 0, fd, size, 0, {}, std::move(bytes),
                  [this, fd, size](io::FsReply&& wrep) {
                    const bool ok =
                        wrep.result == static_cast<std::int64_t>(size);
                    fship_->shipRaw(
                        io::FsOp::kClose, 0, 0, fd, 0, 0, {}, {},
                        [this, ok, size](io::FsReply&&) {
                          if (ok) {
                            ++coredumpsShipped_;
                            logRas(kernel::RasEvent::Code::kCoredump,
                                   kernel::RasEvent::Severity::kInfo, 0, 0,
                                   size);
                          }
                        });
                  });
            });
      });
}

void CnkKernel::requestReproducibleReset(std::function<void()> onRestarted) {
  // Rendezvous all cores in the Boot SRAM, flush all cache levels to
  // DDR, put DDR in self-refresh, toggle reset (§III).
  unloadJob();
  node_.prepareForReset();
  ++reproResets_;
  booted_ = false;
  engine().schedule(5'000 /* reset toggle + SRAM re-entry */, [this,
                                                               cb = std::move(
                                                                   onRestarted)] {
    node_.restartFromSelfRefresh();
    // Reproducible restart: skip the service-node interaction,
    // reinitialize all functional units directly (§III).
    const std::vector<kernel::BootPhase> phases = {
        {"repro: functional unit reinit", 30'000},
        {"repro: DDR out of self-refresh", 4'000},
        {"repro: critical memory reinit", 8'000},
    };
    sim::Cycle at = 0;
    for (const auto& ph : phases) {
      at += ph.cycles;
      engine().schedule(at, [this, name = ph.name] {
        bootLog_.push_back(name);
      });
    }
    engine().schedule(at, [this, cb = std::move(cb)] {
      booted_ = true;
      if (cb) cb();
    });
  });
}

void CnkKernel::designateRemoteProcess(int core, std::uint32_t pid) {
  remoteProcOfCore_[core] = pid;
}

hw::HandlerResult CnkKernel::dlopenForThread(Thread& t,
                                             const std::string& name) {
  return linker_->dlopen(t, name);
}

}  // namespace bg::cnk
