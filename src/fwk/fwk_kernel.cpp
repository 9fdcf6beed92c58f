#include "fwk/fwk_kernel.hpp"

#include <algorithm>
#include <cassert>

#include "cnk/partitioner.hpp"  // shared virtual-layout constants

namespace bg::fwk {

using kernel::JobSpec;
using kernel::Process;
using kernel::Sys;
using kernel::Thread;
using hw::HandlerResult;

namespace {
constexpr sim::Cycle kTickCycles = 850'000;  // HZ=1000 at 850MHz
constexpr int kTimesliceTicks = 6;
constexpr sim::Cycle kSyscallBaseCost = 260;
constexpr sim::Cycle kTickHandlerCost = 1'150;
constexpr sim::Cycle kPageFaultCost = 2'600;
constexpr sim::Cycle kTlbRefillCost = 48;
// The FWK's futex and console costs on top of kSyscallBaseCost.
constexpr kernel::FutexCosts kFutexCosts{80, 160, 120, 60};
constexpr sim::Cycle kConsoleCost = 350;
}  // namespace

FwkKernel::FwkKernel(hw::Node& node, Config cfg)
    : KernelBase(node),
      cfg_(std::move(cfg)),
      sched_(node.numCores()),
      rng_(cfg_.entropy, "fwk") {
  buddy_ = std::make_unique<BuddyAllocator>(
      cfg_.kernelReservedBytes,
      node.mem().size() - cfg_.kernelReservedBytes);
  auto rootFs = std::make_shared<io::RamFs>();
  nfs_ = std::make_shared<io::NfsSim>();
  vfs_.mount("/", rootFs);
  vfs_.mount("/nfs", nfs_);
  rootFs->mkdir("/tmp");
  rootFs->mkdir("/lib");
}

FwkKernel::~FwkKernel() = default;

std::vector<kernel::BootPhase> FwkKernel::bootPhases() const {
  // Calibrated to §III: at the 10Hz VHDL rate a full Linux boot takes
  // weeks (~18M cycles ~ 3 weeks) and "even stripped down, Linux takes
  // days" (~4M cycles ~ 4.6 days).
  if (cfg_.strippedBoot) {
    return {
        {"bootloader + decompress kernel", 600'000},
        {"arch setup + memory init", 900'000},
        {"core kernel init", 1'100'000},
        {"minimal drivers", 700'000},
        {"initramfs + init", 700'000},
    };
  }
  // Clocksource calibration depends on interrupt/device timing that
  // varies between real-world boots (the entropy input): boot length —
  // and with it the phase of everything the kernel does afterwards —
  // is not reproducible run to run (paper Table II, last row).
  std::uint64_t e = cfg_.entropy;
  const sim::Cycle calib = 1'700'000 + sim::splitmix64(e) % 180'000;
  return {
      {"bootloader + decompress kernel", 900'000},
      {"arch setup", 650'000},
      {"buddy/slab init", 800'000},
      {"scheduler + RCU init", 550'000},
      {"timers + clocksource calibration", calib},
      {"console init", 450'000},
      {"VFS + page cache init", 900'000},
      {"driver model + bus probes", 2'600'000},
      {"network stack init", 1'400'000},
      {"block layer + disk probe", 1'900'000},
      {"filesystem mounts", 1'300'000},
      {"udev coldplug", 1'600'000},
      {"syslog/cron/services", 1'500'000},
      {"NFS client + portmap", 900'000},
      {"init scripts + getty", 850'000},
  };
}

void FwkKernel::spawnDaemons() {
  // Daemons live in a resident kernel process with an anonymous heap.
  auto proc = std::make_unique<Process>(allocPid(), nullptr);
  proc->kernelResident = true;
  daemonProc_ = proc.get();
  AddressSpace& space = spaces_[proc->pid()];
  Vma heap;
  heap.base = 0x1000'0000;
  heap.size = 16ULL << 20;
  heap.perms = hw::kPermRW;
  space.addVma(heap);
  proc->heapBase = heap.base;
  proc->brk = heap.base;
  proc->heapLimit = heap.base + heap.size;

  const std::vector<DaemonSpec> daemons = defaultDaemons();
  daemonPrograms_.reserve(daemons.size());
  int i = 0;
  for (const DaemonSpec& spec : daemons) {
    daemonPrograms_.push_back(daemonProgram(spec));
    Thread& t = proc->addThread(allocTid());
    t.ctx.prog = &daemonPrograms_.back();
    t.ctx.pc = 0;
    // Each daemon gets a private scratch buffer inside the heap.
    t.ctx.regs[10] = heap.base + static_cast<std::uint64_t>(i) * (64 << 10);
    t.ctx.state = hw::ThreadState::kReady;
    sched_.enqueue(t, spec.core, /*daemon=*/true);
    node_.core(spec.core).kick();
    ++i;
  }
  processes_.push_back(std::move(proc));
}

void FwkKernel::startTick() {
  // The tick grid's phase relative to application start differs per
  // boot (clocksource calibration, init timing) — a per-boot offset
  // drawn from the entropy stream.
  for (int c = 0; c < node_.numCores(); ++c) {
    node_.core(c).setDecrementer(kTickCycles +
                                 rng_.nextBelow(kTickCycles));
  }
}

bool FwkKernel::loadJob(const JobSpec& spec) {
  if (!booted_ || spec.exe == nullptr) return false;
  if (daemonProc_ == nullptr && cfg_.enableDaemons) spawnDaemons();
  if (cfg_.enableTick) startTick();

  for (const auto& lib : spec.libs) registerLibImage(lib);

  for (int i = 0; i < spec.processes; ++i) {
    const std::uint32_t pid = allocPid();
    auto proc = std::make_unique<Process>(pid, spec.exe);
    Process& p = *proc;
    p.rank = spec.firstRank + i;
    p.nodeId = node_.id();
    AddressSpace& space = spaces_[pid];

    // Text: lazily paged from the executable image (local storage).
    Vma text;
    text.base = cnk::kTextVBase;
    text.size = hw::alignUp(std::max<std::uint64_t>(spec.exe->textBytes(),
                                                    hw::kPage4K),
                            hw::kPage4K);
    text.perms = hw::kPermRX;  // Linux protects text
    text.kind = Vma::Kind::kFileLazy;
    text.file = spec.exe;
    space.addVma(text);

    Vma data;
    data.base = hw::alignUp(text.base + text.size, hw::kPage4K);
    data.size = hw::alignUp(std::max<std::uint64_t>(spec.exe->dataBytes(),
                                                    hw::kPage4K),
                            hw::kPage4K);
    data.perms = hw::kPermRW;
    space.addVma(data);

    // Heap + main stack. Linux 32-bit convention: ~3GB task limit
    // (paper §VII-A); the heap VMA is generous but demand-paged.
    Vma heap;
    heap.base = hw::alignUp(data.base + data.size, hw::kPage4K);
    heap.size = 512ULL << 20;
    heap.perms = hw::kPermRW;
    space.addVma(heap);
    p.heapBase = heap.base;
    p.brk = heap.base;
    p.heapLimit = heap.base + heap.size;

    Vma stack;
    stack.size = 8ULL << 20;
    stack.base = 0xBF00'0000 - stack.size;
    stack.perms = hw::kPermRW;
    space.addVma(stack);
    p.stackTop = stack.base + stack.size;

    if (spec.sharedMemBytes > 0) {
      Vma shm;
      shm.base = cnk::kSharedVBase;
      shm.size = hw::alignUp(spec.sharedMemBytes, hw::kPage4K);
      shm.perms = hw::kPermRW;
      space.addVma(shm);
      p.sharedBase = shm.base;
    }

    if (!cfg_.demandPaging) {
      // Prefault ablation: touch every page the program can reach now.
      // The heap VMA is generous (demand-paged by design); prefault
      // only a working-set prefix of it so the frame pool is not
      // exhausted.
      const std::uint64_t heapPrefix =
          std::min<std::uint64_t>(heap.size, 32ULL << 20);
      const struct {
        hw::VAddr base;
        std::uint64_t size;
      } ranges[] = {{text.base, text.size},
                    {data.base, data.size},
                    {heap.base, heapPrefix},
                    {stack.base, stack.size}};
      for (const auto& rge : ranges) {
        for (hw::VAddr va = rge.base; va < rge.base + rge.size;
             va += hw::kPage4K) {
          faultInPage(p, va);
        }
      }
    }

    Thread& main = p.addThread(allocTid());
    main.ctx.prog = &spec.exe->program();
    main.ctx.pc = 0;
    main.ctx.regs[1] = static_cast<std::uint64_t>(p.rank);
    main.ctx.regs[2] = 1;
    main.ctx.regs[10] = p.heapBase;
    main.ctx.regs[11] = p.stackTop;
    main.ctx.regs[12] = p.sharedBase;
    main.ctx.regs[13] = data.base;
    main.ctx.regs[14] = p.heapLimit;
    main.ctx.state = hw::ThreadState::kReady;
    if (sampleSink_) main.ctx.samples = sampleSink_(p, 0);

    const int core = sched_.nextUserCore();
    sched_.enqueue(main, core);
    node_.core(core).kick();
    processes_.push_back(std::move(proc));
  }
  logRas(kernel::RasEvent::Code::kJobLoaded,
         processes_.empty() ? 0 : processes_.back()->pid(), 0,
         static_cast<std::uint64_t>(spec.processes));
  return true;
}

void FwkKernel::registerLibImage(std::shared_ptr<kernel::ElfImage> img) {
  libImages_[img->name()] = std::move(img);
}

std::optional<sim::Cycle> FwkKernel::faultInPage(Process& p, hw::VAddr va) {
  AddressSpace& space = spaces_[p.pid()];
  const hw::VAddr page = hw::alignDown(va, hw::kPage4K);
  if (space.page(page) != nullptr) return 0;
  Vma* v = space.vmaFor(va);
  if (v == nullptr) return std::nullopt;
  const auto frame = buddy_->alloc(hw::kPage4K);
  if (!frame) return std::nullopt;  // OOM
  ++pageFaults_;
  sim::Cycle cost = kPageFaultCost;
  node_.mem().zero(*frame, hw::kPage4K);
  if (v->kind == Vma::Kind::kFileLazy && v->file != nullptr) {
    const auto& img = v->file->textContents();
    const std::uint64_t off = (page - v->base) + v->fileOffset;
    if (off < img.size()) {
      const std::uint64_t n =
          std::min<std::uint64_t>(hw::kPage4K, img.size() - off);
      node_.mem().write(*frame,
                        std::span(img.data() + off, n));
    }
    // Faulting a page across networked storage: the §IV-B2 cost CNK
    // refuses to pay at run time.
    cost += v->remoteBacked
                ? nfs_->opLatency(io::FsOpKind::kRead, hw::kPage4K,
                                  engine().now())
                : 1'900;
  }
  space.mapPage(page, *frame, v->perms);
  return cost;
}

std::optional<hw::PAddr> FwkKernel::resolveUser(Process& p, hw::VAddr va) {
  AddressSpace& space = spaces_[p.pid()];
  const hw::VAddr page = hw::alignDown(va, hw::kPage4K);
  PageEntry* pe = space.page(page);
  if (pe == nullptr) {
    if (!faultInPage(p, va)) return std::nullopt;
    pe = space.page(page);
    if (pe == nullptr) return std::nullopt;
  }
  return pe->frame + (va - page);
}

// ---------------------------------------------------------------------------
// Faults / interrupts / scheduling
// ---------------------------------------------------------------------------

hw::HandlerResult FwkKernel::onTlbMiss(hw::Core& core, hw::ThreadCtx& ctx,
                                       hw::VAddr va, hw::Access access) {
  Thread& t = threadOf(ctx);
  Process& p = t.proc;
  AddressSpace& space = spaces_[p.pid()];
  const hw::VAddr page = hw::alignDown(va, hw::kPage4K);

  sim::Cycle cost = 0;
  PageEntry* pe = space.page(page);
  if (pe == nullptr) {
    const auto faultCost = faultInPage(p, va);
    if (!faultCost) {
      logRas(kernel::RasEvent::Code::kSegv, p.pid(), ctx.tid, va);
      const sim::Cycle c = deliverSignal(t, kernel::kSigSegv, ctx.pc + 1);
      return HandlerResult::resched(c);
    }
    cost += *faultCost;
    pe = space.page(page);
  }
  if (!hw::permAllows(pe->perms, access)) {
    logRas(kernel::RasEvent::Code::kSegv, p.pid(), ctx.tid, va);
    const sim::Cycle c = deliverSignal(t, kernel::kSigSegv, ctx.pc + 1);
    return HandlerResult::resched(c);
  }
  hw::TlbEntry e;
  e.pid = p.pid();
  e.vaddr = page;
  e.paddr = pe->frame;
  e.size = hw::kPage4K;
  e.perms = pe->perms;
  e.valid = true;
  core.mmu().install(e);
  ++tlbRefills_;
  return HandlerResult::done(0, cost + kTlbRefillCost);
}

hw::HandlerResult FwkKernel::onInterrupt(hw::Core& core, hw::Irq irq) {
  switch (irq) {
    case hw::Irq::kDecrementer: {
      ++ticks_;
      if (cfg_.enableTick) core.setDecrementer(kTickCycles);
      sim::Cycle cost = kTickHandlerCost;
      int& slice = ticksSinceSwitch_[core.id()];
      ++slice;
      hw::ThreadCtx* cur = core.current();
      if (cur != nullptr && cur->state == hw::ThreadState::kRunning) {
        Thread& t = threadOf(*cur);
        const bool daemonWants = sched_.daemonReady(core.id());
        const bool expired = slice >= kTimesliceTicks &&
                             sched_.hasOtherReady(core.id(), t);
        if (daemonWants || expired) {
          // Preempt: back of the queue, switch to the next runnable.
          t.ctx.state = hw::ThreadState::kReady;
          sched_.rotate(t);
          Thread* next = sched_.pickNext(core.id());
          if (next != nullptr && next != &t) {
            ++preemptions_;
            if (sched_.isDaemon(*next)) ++daemonWakeups_;
            cost += contextSwitchCost();
            slice = 0;
            lastOnCore_[core.id()] = next;
            core.bind(&next->ctx);
          }
        }
      }
      return HandlerResult::done(0, cost);
    }
    case hw::Irq::kIpi:
      return HandlerResult::done(0, 900);
    case hw::Irq::kExternal: {
      // Timer/device interrupt (e.g. a daemon's sleep expiry): on
      // return from interrupt the kernel reschedules if a higher-
      // priority (daemon) thread became runnable.
      sim::Cycle cost = 700;
      hw::ThreadCtx* cur = core.current();
      if (cur != nullptr && cur->state == hw::ThreadState::kRunning &&
          sched_.daemonReady(core.id())) {
        Thread& t = threadOf(*cur);
        if (!sched_.isDaemon(t)) {
          t.ctx.state = hw::ThreadState::kReady;
          sched_.rotate(t);
          Thread* next = sched_.pickNext(core.id());
          if (next != nullptr && next != &t) {
            ++preemptions_;
            ++daemonWakeups_;
            cost += contextSwitchCost();
            ticksSinceSwitch_[core.id()] = 0;
            lastOnCore_[core.id()] = next;
            core.bind(&next->ctx);
          }
        }
      }
      return HandlerResult::done(0, cost);
    }
    case hw::Irq::kMachineCheck: {
      hw::McSyndrome syn;
      if (!node_.takeMc(&syn)) {
        // No latched syndrome (every fault plane latches one, so this
        // is defensive): Linux treats an unexplained machine check as
        // fatal to the task (no application-recovery path — contrast
        // with CNK §V-B).
        hw::ThreadCtx* cur = core.current();
        if (cur != nullptr && !cur->done()) killThread(threadOf(*cur));
        return HandlerResult::done(0, 2'000);
      }
      // Latched hardware syndromes: Linux scrubs correctables like
      // any EDAC driver, but an uncorrectable error or parity flip
      // kills the task — and with it the node's usefulness to the
      // job. No coredump either: the page cache can't be trusted
      // after a machine check, so the FWK just reports and dies.
      hw::ThreadCtx* cur = core.current();
      const std::uint32_t pid = cur != nullptr ? cur->pid : 0;
      sim::Cycle cost = 0;
      bool fatal = false;
      hw::PAddr fatalAddr = 0;
      do {
        switch (syn.kind) {
          case hw::McSyndrome::Kind::kCorrectable:
            logRas(kernel::RasEvent::Code::kEccCorrectable,
                   kernel::RasEvent::Severity::kWarn, pid, 0, syn.paddr);
            cost += 400;  // EDAC path is heavier than CNK's scrub
            break;
          case hw::McSyndrome::Kind::kParity:
            if (cur != nullptr && !cur->done()) killThread(threadOf(*cur));
            logRas(kernel::RasEvent::Code::kMachineCheck,
                   kernel::RasEvent::Severity::kError, pid, 0, syn.paddr);
            cost += 2'000;
            break;
          case hw::McSyndrome::Kind::kUncorrectable:
            fatal = true;
            fatalAddr = syn.paddr;
            break;
        }
      } while (node_.takeMc(&syn));
      if (fatal) {
        // Panic: fail-stop every user thread and let the service
        // node requeue the job and reboot the node.
        logRas(kernel::RasEvent::Code::kEccUncorrectable,
               kernel::RasEvent::Severity::kFatal, pid, 0, fatalAddr);
        for (auto& p : processes_) {
          if (p->kernelResident) continue;
          for (const auto& t : p->threads()) {
            if (!t->ctx.done()) killThread(*t);
          }
        }
        cost += 5'000;
      }
      return HandlerResult::done(0, cost == 0 ? 50 : cost);
    }
  }
  return HandlerResult::done(0, 50);
}

hw::ThreadCtx* FwkKernel::pickNext(hw::Core& core) {
  Thread* t = sched_.pickNext(core.id());
  if (t == nullptr) return nullptr;
  if (lastOnCore_[core.id()] != t) {
    ticksSinceSwitch_[core.id()] = 0;
    lastOnCore_[core.id()] = t;
  }
  return &t->ctx;
}

void FwkKernel::onThreadHalt(hw::Core& core, hw::ThreadCtx& ctx) {
  KernelBase::onThreadHalt(core, ctx);
  sched_.remove(threadOf(ctx));
}

// ---------------------------------------------------------------------------
// Syscalls
// ---------------------------------------------------------------------------

io::VfsClient& FwkKernel::clientOf(Process& p) {
  auto it = clients_.find(p.pid());
  if (it == clients_.end()) {
    it = clients_
             .emplace(p.pid(),
                      std::make_unique<io::VfsClient>(vfs_, engine()))
             .first;
  }
  return *it->second;
}

hw::HandlerResult FwkKernel::syscall(hw::Core& core, hw::ThreadCtx& ctx,
                                     const hw::SyscallArgs& args) {
  Thread& t = threadOf(ctx);
  if (auto r = commonSyscall(core, t, args)) {
    r->cost += kSyscallBaseCost;
    return *r;
  }
  const sim::Cycle base = kSyscallBaseCost;
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
      return sysClone(t, args);
    case Sys::kFutex:
      return sysFutex(t, args, base, kFutexCosts);
    case Sys::kSchedYield:
      t.ctx.state = hw::ThreadState::kReady;
      sched_.rotate(t);
      return HandlerResult::resched(base + 120);
    case Sys::kSchedSetaffinity: {
      // arg0 = tid (0 = self), arg1 = target core. Linux allows thread
      // migration; the thread comes off its current core and requeues
      // on the target.
      Thread* target = args.arg[0] == 0
                           ? &t
                           : threadByTid(
                                 static_cast<std::uint32_t>(args.arg[0]));
      const int core = static_cast<int>(args.arg[1]);
      if (target == nullptr || core < 0 || core >= node_.numCores()) {
        return HandlerResult::done(
            static_cast<std::uint64_t>(-kernel::kEINVAL), base);
      }
      sched_.remove(*target);
      sched_.enqueue(*target, core);
      node_.core(core).kick();
      if (target == &t) {
        // Self-migration: leave this core now.
        t.ctx.state = hw::ThreadState::kReady;
        return HandlerResult::resched(base + 900);
      }
      return HandlerResult::done(0, base + 700);
    }
    case Sys::kNanosleep:
      return sysNanosleep(t, args.arg[0]);
    case Sys::kRead:
    case Sys::kWrite:
    case Sys::kOpen:
    case Sys::kClose:
    case Sys::kLseek:
    case Sys::kStat:
    case Sys::kUnlink:
    case Sys::kMkdir:
    case Sys::kChdir:
    case Sys::kDup: {
      // The local VFS runs the same op an ioproxy would, at the fd's
      // own offset.
      kernel::FileCall call;
      if (auto r = decodeFileSyscall(t, args, base, kConsoleCost, call)) {
        return *r;
      }
      io::VfsClient& c = clientOf(t.proc);
      io::FsRequest& q = call.req;
      if (q.op == io::FsOp::kRead || q.op == io::FsOp::kWrite) {
        q.a2 = c.offsetOf(static_cast<int>(q.a0)).value_or(0);
      }
      const io::FsReply rep = io::runFsOp(c, q);
      copyToUser(t.proc, call.dest,
                 std::span(rep.payload)
                     .first(std::min<std::size_t>(rep.payload.size(),
                                                  call.destLen)));
      if (q.op == io::FsOp::kChdir && rep.result == 0) t.proc.cwd = c.cwd();
      return HandlerResult::done(static_cast<std::uint64_t>(rep.result),
                                 base + c.lastLatency());
    }
    default:
      // The BG SPI extensions (virt2phys, persist, ...) do not exist
      // on Linux.
      return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kENOSYS),
                                 base);
  }
}

hw::HandlerResult FwkKernel::sysBrk(Thread& t, std::uint64_t newBrk) {
  Process& p = t.proc;
  const sim::Cycle base = kSyscallBaseCost;
  if (newBrk == 0) return HandlerResult::done(p.brk, base + 40);
  if (newBrk < p.heapBase || newBrk > p.heapLimit) {
    return HandlerResult::done(p.brk, base + 40);
  }
  p.brk = newBrk;  // pages materialize on first touch
  return HandlerResult::done(p.brk, base + 110);
}

hw::HandlerResult FwkKernel::sysMmap(Thread& t, const hw::SyscallArgs& a) {
  Process& p = t.proc;
  AddressSpace& space = spaces_[p.pid()];
  const std::uint64_t len = hw::alignUp(a.arg[1], hw::kPage4K);
  const std::uint64_t flags = a.arg[3];
  const sim::Cycle base = kSyscallBaseCost;
  if (len == 0) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEINVAL),
                               base);
  }
  hw::VAddr addr;
  if (flags & kernel::kMapFixed) {
    addr = a.arg[0];
  } else {
    addr = mmapCursor_;
    mmapCursor_ += len + hw::kPage4K;
  }
  Vma v;
  v.base = addr;
  v.size = len;
  v.perms = static_cast<std::uint8_t>(a.arg[2] & 7);
  if (v.perms == 0) v.perms = hw::kPermRW;
  space.addVma(v);
  return HandlerResult::done(addr, base + 190);
}

hw::HandlerResult FwkKernel::sysMunmap(Thread& t, const hw::SyscallArgs& a) {
  Process& p = t.proc;
  AddressSpace& space = spaces_[p.pid()];
  const hw::VAddr base = hw::alignDown(a.arg[0], hw::kPage4K);
  const std::uint64_t len = hw::alignUp(a.arg[1], hw::kPage4K);
  // Reclaim frames before dropping the VMA.
  for (hw::VAddr va = base; va < base + len; va += hw::kPage4K) {
    if (PageEntry* pe = space.page(va)) {
      buddy_->free(pe->frame, hw::kPage4K);
      space.unmapPage(va);
    }
  }
  space.removeVma(base, len);
  for (int c = 0; c < node_.numCores(); ++c) {
    node_.core(c).mmu().invalidate(p.pid());
  }
  return HandlerResult::done(0, kSyscallBaseCost + 260);
}

hw::HandlerResult FwkKernel::sysMprotect(Thread& t,
                                         const hw::SyscallArgs& a) {
  Process& p = t.proc;
  AddressSpace& space = spaces_[p.pid()];
  p.lastMprotectAddr = a.arg[0];
  p.lastMprotectLen = a.arg[1];
  const bool ok = space.protect(a.arg[0], hw::alignUp(a.arg[1], hw::kPage4K),
                                static_cast<std::uint8_t>(a.arg[2] & 7));
  // Stale translations must go: TLB shootdown across cores.
  for (int c = 0; c < node_.numCores(); ++c) {
    node_.core(c).mmu().invalidate(p.pid());
  }
  return HandlerResult::done(
      ok ? 0 : static_cast<std::uint64_t>(-kernel::kEINVAL),
      kSyscallBaseCost + 350);
}

hw::HandlerResult FwkKernel::sysClone(Thread& t, const hw::SyscallArgs& a) {
  const sim::Cycle base = kSyscallBaseCost;
  if ((a.arg[0] & kernel::kCloneVm) == 0) {
    // fork() would be supported by a real Linux; out of scope for the
    // compute-node model.
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kENOSYS),
                               base);
  }
  Thread& child = cloneThread(t, a);
  const int core = sched_.nextUserCore();
  sched_.enqueue(child, core);
  node_.core(core).kick();
  return HandlerResult::done(child.ctx.tid, base + 2'100);
}

hw::HandlerResult FwkKernel::sysNanosleep(Thread& t, std::uint64_t us) {
  // Timer-based sleep with wakeup jitter from the entropy stream (timer
  // slack, interrupt coalescing).
  const sim::Cycle dur = sim::usToCycles(static_cast<double>(us));
  const sim::Cycle jitter = static_cast<sim::Cycle>(
      rng_.nextExp(static_cast<double>(kTickCycles) * 0.03));
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = true;
  Thread* tp = &t;
  const bool isDaemon = sched_.isDaemon(t);
  engine().schedule(dur + jitter, [this, tp, isDaemon] {
    wakeThread(*tp, 0);
    // The expiry is a hardware timer interrupt; a waking daemon
    // preempts user work on its core at the next interrupt boundary.
    if (isDaemon && tp->ctx.coreAffinity >= 0) {
      node_.core(tp->ctx.coreAffinity).raise(hw::Irq::kExternal);
    }
  });
  return HandlerResult::blocked(kSyscallBaseCost + 180);
}

hw::HandlerResult FwkKernel::dlopenForThread(Thread& t,
                                             const std::string& name) {
  auto it = libImages_.find(name);
  if (it == libImages_.end()) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kENOENT),
                               kSyscallBaseCost);
  }
  Process& p = t.proc;
  AddressSpace& space = spaces_[p.pid()];
  const auto& img = it->second;
  // Instant VMA creation; pages fault in from remote storage as the
  // application touches them.
  Vma text;
  text.base = mmapCursor_;
  text.size = hw::alignUp(std::max<std::uint64_t>(img->textBytes(),
                                                  hw::kPage4K),
                          hw::kPage4K);
  text.perms = hw::kPermRX;  // Linux honors library page permissions
  text.kind = Vma::Kind::kFileLazy;
  text.file = img;
  text.remoteBacked = true;
  mmapCursor_ += text.size + hw::kPage4K;
  space.addVma(text);

  Vma data;
  data.base = mmapCursor_;
  data.size = hw::alignUp(std::max<std::uint64_t>(img->dataBytes(),
                                                  hw::kPage4K),
                          hw::kPage4K);
  data.perms = hw::kPermRW;
  mmapCursor_ += data.size + hw::kPage4K;
  space.addVma(data);

  // dlopen itself is quick: just mapping metadata.
  return HandlerResult::done(text.base, kSyscallBaseCost + 2'500);
}

}  // namespace bg::fwk
