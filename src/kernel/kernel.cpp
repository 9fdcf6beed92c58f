#include "kernel/kernel.hpp"

#include <algorithm>
#include <cstring>

#include "io/vfs.hpp"

namespace bg::kernel {

KernelBase::KernelBase(hw::Node& node) : node_(node) {
  node_.attachKernel(this);
}

void KernelBase::boot(std::function<void()> onBooted) {
  const auto phases = bootPhases();
  const sim::Cycle start = engine().now();
  sim::Cycle at = 0;
  for (const BootPhase& ph : phases) {
    at += ph.cycles;
    engine().schedule(at, [this, name = ph.name] {
      bootLog_.push_back(name);
    });
  }
  engine().schedule(at, [this, start, cb = std::move(onBooted)] {
    booted_ = true;
    bootCycles_ = engine().now() - start;
    if (cb) cb();
  });
}

Process* KernelBase::processByPid(std::uint32_t pid) {
  for (auto& p : processes_) {
    if (p->pid() == pid) return p.get();
  }
  return nullptr;
}

Thread* KernelBase::threadByTid(std::uint32_t tid) {
  for (auto& p : processes_) {
    if (Thread* t = p->threadByTid(tid)) return t;
  }
  return nullptr;
}

bool KernelBase::jobDone() const {
  bool sawUserProcess = false;
  for (const auto& p : processes_) {
    if (p->kernelResident) continue;  // daemons never exit
    sawUserProcess = true;
    if (!p->exited) return false;
  }
  return sawUserProcess;
}

bool KernelBase::copyFromUser(Process& p, hw::VAddr va,
                              std::span<std::byte> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    const auto pa = resolveUser(p, va + off);
    if (!pa) return false;
    const std::uint64_t pageOff = (va + off) % hw::kPage4K;
    const std::size_t n = std::min<std::size_t>(
        out.size() - off, static_cast<std::size_t>(hw::kPage4K - pageOff));
    node_.mem().read(*pa, out.subspan(off, n));
    off += n;
  }
  return true;
}

bool KernelBase::copyToUser(Process& p, hw::VAddr va,
                            std::span<const std::byte> in) {
  std::size_t off = 0;
  while (off < in.size()) {
    const auto pa = resolveUser(p, va + off);
    if (!pa) return false;
    const std::uint64_t pageOff = (va + off) % hw::kPage4K;
    const std::size_t n = std::min<std::size_t>(
        in.size() - off, static_cast<std::size_t>(hw::kPage4K - pageOff));
    node_.mem().write(*pa, in.subspan(off, n));
    off += n;
  }
  return true;
}

std::optional<std::string> KernelBase::readUserString(Process& p, hw::VAddr va,
                                                      std::size_t maxLen) {
  std::string out;
  while (out.size() < maxLen) {
    std::byte b;
    if (!copyFromUser(p, va + out.size(), std::span(&b, 1))) {
      return std::nullopt;
    }
    if (b == std::byte{0}) return out;
    out.push_back(static_cast<char>(b));
  }
  return std::nullopt;
}

sim::Cycle KernelBase::deliverSignal(Thread& t, int signo,
                                     std::uint64_t resumePc) {
  if (signo < 0 || signo >= kNumSignals ||
      !t.proc.sig[signo].installed || signo == kSigKill) {
    killThread(t);
    return 300;
  }
  hw::ThreadCtx& ctx = t.ctx;
  const std::uint64_t savedPc = ctx.pc;
  ctx.pc = resumePc;
  ctx.pushSignalFrame();
  ctx.pc = t.proc.sig[signo].entry;
  ctx.regs[vm::kArg0] = static_cast<std::uint64_t>(signo);
  (void)savedPc;
  if (ctx.state == hw::ThreadState::kBlocked) {
    // Signals interrupt blocked threads (handler runs, syscall is not
    // restarted in this model).
    ctx.state = hw::ThreadState::kReady;
    node_.core(ctx.coreAffinity).kick();
  }
  return 250;
}

void KernelBase::logRas(RasEvent::Code code, std::uint32_t pid,
                        std::uint32_t tid, std::uint64_t detail) {
  logRas(code, defaultRasSeverity(code), pid, tid, detail);
}

void KernelBase::logRas(RasEvent::Code code, RasEvent::Severity severity,
                        std::uint32_t pid, std::uint32_t tid,
                        std::uint64_t detail) {
  rasLog_.push_back(
      RasEvent{engine().now(), code, severity, pid, tid, detail, rasNextSeq_++});
  trimRasLog();
}

void KernelBase::trimRasLog() {
  while (rasLog_.size() > rasLogCap_) {
    rasLog_.pop_front();
    ++rasDropped_;
  }
}

void KernelBase::killThread(Thread& t) {
  ++threadsKilled_;
  t.ctx.state = hw::ThreadState::kFaulted;
  t.proc.exited = true;  // a fatal signal takes down the process
  t.proc.exitStatus = -1;
  logRas(RasEvent::Code::kThreadKilled, t.proc.pid(), t.ctx.tid,
         static_cast<std::uint64_t>(t.ctx.pc));
}

void KernelBase::wakeThread(Thread& t, std::uint64_t result) {
  if (t.ctx.done()) return;
  t.ctx.regs[vm::kRetReg] = result;
  t.ctx.state = hw::ThreadState::kReady;
  if (t.ctx.coreAffinity >= 0) {
    node_.core(t.ctx.coreAffinity).kick();
  }
}

sim::Cycle KernelBase::onFault(hw::Core& core, hw::ThreadCtx& ctx,
                               hw::FaultKind kind, hw::VAddr va) {
  (void)core;
  Thread& t = threadOf(ctx);
  int signo = kSigSegv;
  if (kind == hw::FaultKind::kMachineCheck) signo = kSigBus;
  logRas(kind == hw::FaultKind::kMachineCheck
             ? RasEvent::Code::kMachineCheck
             : RasEvent::Code::kSegv,
         t.proc.pid(), t.ctx.tid, va);
  // Faulting instruction is skipped on handler return (documented
  // convention; real kernels would re-execute after the handler fixed
  // the mapping — our workloads use handlers for notification).
  return deliverSignal(t, signo, ctx.pc + 1);
}

void KernelBase::onThreadHalt(hw::Core& core, hw::ThreadCtx& ctx) {
  (void)core;
  Thread& t = threadOf(ctx);
  // CLONE_CHILD_CLEARTID: clear the tid word, then wake every thread
  // waiting on it — the futex wake that completes pthread_join.
  if (t.clearChildTid != 0) {
    const auto pa = resolveUser(t.proc, t.clearChildTid);
    if (pa) node_.mem().write64(*pa, 0);
  }
  if (t.proc.liveThreads() == 0) {
    t.proc.exited = true;
    t.proc.exitStatus = t.ctx.exitStatus;
    logRas(RasEvent::Code::kJobExited, t.proc.pid(), t.ctx.tid,
           static_cast<std::uint64_t>(t.proc.exitStatus));
  }
  if (t.clearChildTid != 0) {
    for (Thread* w : futex_.dequeue(t.proc.pid(), t.clearChildTid,
                                    UINT64_MAX)) {
      wakeThread(*w, 0);
    }
  }
  futex_.remove(&t);
}

std::optional<hw::HandlerResult> KernelBase::decodeFileSyscall(
    Thread& t, const hw::SyscallArgs& a, sim::Cycle base,
    sim::Cycle consoleCost, FileCall& call) {
  using io::FsOp;
  io::FsRequest& req = call.req;
  const auto efault =
      hw::HandlerResult::done(static_cast<std::uint64_t>(-kEFAULT), base);
  const auto nr = static_cast<Sys>(a.nr);
  switch (nr) {
    case Sys::kRead:
      req.op = FsOp::kRead;
      req.a0 = a.arg[0];
      req.a1 = a.arg[2];
      call.dest = a.arg[1];
      call.destLen = a.arg[2];
      return std::nullopt;
    case Sys::kWrite: {
      req.payload.resize(a.arg[2]);
      if (!copyFromUser(t.proc, a.arg[1], req.payload)) return efault;
      if (a.arg[0] == 1 || a.arg[0] == 2) {
        // Console output: delivered to the host-visible console ring
        // (on real BG/P stdout also ships to CIOD; modelled locally so
        // examples can print without an I/O node configured).
        console_.append(reinterpret_cast<const char*>(req.payload.data()),
                        req.payload.size());
        return hw::HandlerResult::done(a.arg[2],
                                       base + consoleCost + a.arg[2] / 16);
      }
      req.op = FsOp::kWrite;
      req.a0 = a.arg[0];
      req.a1 = a.arg[2];
      return std::nullopt;
    }
    case Sys::kClose:
    case Sys::kDup:
      req.op = nr == Sys::kClose ? FsOp::kClose : FsOp::kDup;
      req.a0 = a.arg[0];
      return std::nullopt;
    case Sys::kLseek:
      req.op = FsOp::kLseek;
      req.a0 = a.arg[0];
      req.a1 = a.arg[1];
      req.a2 = a.arg[2];
      return std::nullopt;
    default:
      break;
  }
  // The rest take a path in arg0.
  auto path = readUserString(t.proc, a.arg[0]);
  if (!path) return efault;
  req.path = std::move(*path);
  switch (nr) {
    case Sys::kOpen:
      req.op = FsOp::kOpen;
      req.a0 = a.arg[1];  // flags
      break;
    case Sys::kStat:
      req.op = FsOp::kStat;
      call.dest = a.arg[1];
      call.destLen = io::FileStat::kBytes;
      break;
    case Sys::kUnlink:
      req.op = FsOp::kUnlink;
      break;
    case Sys::kMkdir:
      req.op = FsOp::kMkdir;
      break;
    default:  // kChdir
      req.op = FsOp::kChdir;
      break;
  }
  return std::nullopt;
}

hw::HandlerResult KernelBase::sysFutex(Thread& t, const hw::SyscallArgs& a,
                                       sim::Cycle base,
                                       const FutexCosts& costs) {
  using R = hw::HandlerResult;
  const hw::VAddr uaddr = a.arg[0];
  const std::uint64_t op = a.arg[1];
  const std::uint64_t val = a.arg[2];
  Process& p = t.proc;
  if (op == kFutexWait) {
    const auto pa = resolveUser(p, uaddr);
    if (!pa) return R::done(static_cast<std::uint64_t>(-kEFAULT), base);
    if (node_.mem().read64(*pa) != val) {
      return R::done(static_cast<std::uint64_t>(-kEAGAIN),
                     base + costs.mismatch);
    }
    futex_.enqueue(p.pid(), uaddr, &t);
    t.ctx.state = hw::ThreadState::kBlocked;
    t.ctx.yieldOnBlock = true;  // futex blocks DO yield the core (§VI-C)
    return R::blocked(base + costs.wait);
  }
  if (op == kFutexWake) {
    auto woken = futex_.dequeue(p.pid(), uaddr, val == 0 ? 1 : val);
    for (Thread* w : woken) wakeThread(*w, 0);
    return R::done(woken.size(),
                   base + costs.wake + costs.perWoken * woken.size());
  }
  return R::done(static_cast<std::uint64_t>(-kENOSYS), base);
}

Thread& KernelBase::cloneThread(Thread& t, const hw::SyscallArgs& a) {
  Process& p = t.proc;
  const std::uint64_t flags = a.arg[0];
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
  if (flags & kCloneChildCleartid) child.clearChildTid = a.arg[3];
  if (flags & kCloneParentSettid) {
    const auto pa = resolveUser(p, a.arg[2]);
    if (pa) node_.mem().write64(*pa, child.ctx.tid);
  }
  return child;
}

std::optional<hw::HandlerResult> KernelBase::commonSyscall(
    hw::Core& core, Thread& t, const hw::SyscallArgs& args) {
  (void)core;
  using R = hw::HandlerResult;
  Process& p = t.proc;
  switch (static_cast<Sys>(args.nr)) {
    case Sys::kGetpid:
      return R::done(p.pid(), 40);
    case Sys::kGettid:
      return R::done(t.ctx.tid, 40);
    case Sys::kUname: {
      // Write the release string at the user pointer (arg0). glibc
      // checks this to decide NPTL support (paper §IV-B1).
      const char* rel = unameRelease();
      const std::size_t n = std::strlen(rel) + 1;
      if (!copyToUser(p, args.arg[0],
                      std::as_bytes(std::span(rel, n)))) {
        return R::done(static_cast<std::uint64_t>(-kEFAULT), 60);
      }
      return R::done(0, 60);
    }
    case Sys::kGettimeofday:
      return R::done(static_cast<std::uint64_t>(
                         sim::cyclesToUs(engine().now())),
                     50);
    case Sys::kRtSigaction: {
      const int signo = static_cast<int>(args.arg[0]);
      if (signo <= 0 || signo >= kNumSignals) {
        return R::done(static_cast<std::uint64_t>(-kEINVAL), 50);
      }
      p.sig[signo].installed = args.arg[1] != 0;
      p.sig[signo].entry = args.arg[1];
      return R::done(0, 60);
    }
    case Sys::kRtSigreturn: {
      if (!t.ctx.popSignalFrame()) {
        killThread(t);
        return R::halt(50);
      }
      // Result register was restored from the frame; return it so the
      // core's kDone write is a no-op value-wise.
      return R::done(t.ctx.regs[vm::kRetReg], 80);
    }
    case Sys::kSetTidAddress:
      t.clearChildTid = args.arg[0];
      return R::done(t.ctx.tid, 40);
    case Sys::kTgkill: {
      Thread* target = threadByTid(static_cast<std::uint32_t>(args.arg[1]));
      if (target == nullptr) {
        return R::done(static_cast<std::uint64_t>(-kEINVAL), 60);
      }
      const int signo = static_cast<int>(args.arg[2]);
      deliverSignal(*target, signo, target->ctx.pc);
      return R::done(0, 120);
    }
    case Sys::kGetcwd: {
      const std::string& cwd = p.cwd;
      if (args.arg[1] < cwd.size() + 1) {
        return R::done(static_cast<std::uint64_t>(-kEINVAL), 50);
      }
      copyToUser(p, args.arg[0],
                 std::as_bytes(std::span(cwd.data(), cwd.size() + 1)));
      return R::done(cwd.size() + 1, 80);
    }
    default:
      return std::nullopt;
  }
}

}  // namespace bg::kernel
