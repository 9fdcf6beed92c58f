#include "runtime/pthreads.hpp"

namespace bg::rt {

using kernel::Sys;

namespace {
constexpr std::uint64_t kStackBytes = 1ULL << 20;  // >1MB: malloc goes to mmap
constexpr std::uint64_t kGuardBytes = 64ULL << 10;
}  // namespace

hw::HandlerResult Pthreads::create(hw::Core& core, kernel::Thread& t,
                                   std::uint64_t startPc,
                                   std::uint64_t arg) {
  sim::Cycle cost = 140;  // pthread_create bookkeeping

  // Stack: >=1MB allocations go through mmap (paper §IV-B1).
  Malloc::Result stack = malloc_.alloc(core, t, kStackBytes + kGuardBytes);
  cost += stack.cost;
  if (stack.addr == 0) {
    return hw::HandlerResult::done(static_cast<std::uint64_t>(-kernel::kENOMEM),
                                   cost);
  }

  // Guard range at the low end of the stack; NPTL mprotects it just
  // before clone (§IV-C / Fig 4).
  auto mp = invokeSyscall(core, t, Sys::kMprotect, stack.addr,
                          kGuardBytes, 0);
  cost += mp.cost;

  // tid word lives at the top of the stack block; clone writes the
  // child tid there (PARENT_SETTID) and the kernel clears and wakes it
  // at exit (CHILD_CLEARTID).
  const hw::VAddr stackTop = stack.addr + kStackBytes + kGuardBytes;
  const hw::VAddr tidWord = stackTop - 8;

  auto cl = invokeSyscall(core, t, Sys::kClone, kernel::kNptlCloneFlags,
                          stackTop - 16, tidWord, tidWord, arg, startPc);
  cost += cl.cost;
  const auto tid = static_cast<std::int64_t>(cl.result);
  if (tid < 0) {
    return hw::HandlerResult::done(cl.result, cost);
  }
  tidWords_[{t.proc.pid(), cl.result}] = tidWord;
  return hw::HandlerResult::done(cl.result, cost);
}

hw::HandlerResult Pthreads::join(hw::Core& core, kernel::Thread& t,
                                 std::uint64_t tid) {
  auto it = tidWords_.find({t.proc.pid(), tid});
  if (it == tidWords_.end()) {
    return hw::HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEINVAL),
                                   90);
  }
  const hw::VAddr word = it->second;
  // futex(WAIT, word, tid): returns -EAGAIN if the child already
  // exited (word cleared), otherwise blocks until the kernel's
  // CHILD_CLEARTID wake.
  auto r = invokeSyscall(core, t, Sys::kFutex, word, kernel::kFutexWait,
                         tid);
  if (r.kind == hw::HandlerResult::Kind::kDone) {
    // Already exited.
    return hw::HandlerResult::done(0, r.cost + 60);
  }
  return r;  // blocked; wake delivers 0
}

hw::HandlerResult Pthreads::mutexLock(hw::Core& core, kernel::Thread& t,
                                      hw::VAddr mutex) {
  kernel::KernelBase* kern = core.node().kernel()
                                 ? static_cast<kernel::KernelBase*>(
                                       core.node().kernel())
                                 : nullptr;
  auto pa = kern->resolveUser(t.proc, mutex);
  if (!pa) {
    return hw::HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEFAULT),
                                   60);
  }
  // Fast path: uncontended CAS in user space — no syscall at all.
  if (core.node().mem().read64(*pa) == 0) {
    core.node().mem().write64(*pa, 1);
    return hw::HandlerResult::done(0, 35);
  }
  // Contended: futex wait. Unlock hands the lock over directly, so a
  // woken waiter owns the mutex without re-checking.
  auto r = invokeSyscall(core, t, Sys::kFutex, mutex, kernel::kFutexWait, 1);
  if (r.kind == hw::HandlerResult::Kind::kDone) {
    // Raced with an unlock: value changed; take the fast path now.
    core.node().mem().write64(*pa, 1);
    return hw::HandlerResult::done(0, r.cost + 35);
  }
  return r;
}

hw::HandlerResult Pthreads::mutexUnlock(hw::Core& core, kernel::Thread& t,
                                        hw::VAddr mutex) {
  kernel::KernelBase* kern =
      static_cast<kernel::KernelBase*>(core.node().kernel());
  auto pa = kern->resolveUser(t.proc, mutex);
  if (!pa) {
    return hw::HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEFAULT),
                                   60);
  }
  if (kern->futexTable().waiterCount(t.proc.pid(), mutex) > 0) {
    // Handover: leave the mutex held and wake one waiter, which owns
    // it on return.
    auto r = invokeSyscall(core, t, Sys::kFutex, mutex, kernel::kFutexWake, 1);
    return hw::HandlerResult::done(0, r.cost + 30);
  }
  core.node().mem().write64(*pa, 0);
  return hw::HandlerResult::done(0, 35);
}

hw::HandlerResult Pthreads::barrierWait(hw::Core& core, kernel::Thread& t,
                                        hw::VAddr barrier,
                                        std::uint64_t count) {
  kernel::KernelBase* kern =
      static_cast<kernel::KernelBase*>(core.node().kernel());
  const auto paCount = kern->resolveUser(t.proc, barrier);
  const auto paGen = kern->resolveUser(t.proc, barrier + 8);
  if (!paCount || !paGen) {
    return hw::HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEFAULT),
                                   60);
  }
  hw::PhysMem& mem = core.node().mem();
  const std::uint64_t gen = mem.read64(*paGen);
  const std::uint64_t arrived = mem.read64(*paCount) + 1;

  if (arrived == count) {
    // Last arriver: new generation, release the others.
    mem.write64(*paCount, 0);
    mem.write64(*paGen, gen + 1);
    auto r = invokeSyscall(core, t, Sys::kFutex, barrier + 8,
                           kernel::kFutexWake, count - 1);
    return hw::HandlerResult::done(1 /* serial thread */, r.cost + 80);
  }
  mem.write64(*paCount, arrived);
  auto r = invokeSyscall(core, t, Sys::kFutex, barrier + 8,
                         kernel::kFutexWait, gen);
  if (r.kind == hw::HandlerResult::Kind::kDone) {
    // Generation already advanced between our check and the wait.
    return hw::HandlerResult::done(0, r.cost + 40);
  }
  return r;
}

}  // namespace bg::rt
