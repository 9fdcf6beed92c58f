#include "hw/core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "hw/mem_fault.hpp"
#include "hw/node.hpp"
#include "sim/hash.hpp"

namespace bg::hw {

namespace {
// Fixed per-instruction base costs (cycles).
constexpr sim::Cycle kAluCost = 1;
constexpr sim::Cycle kBranchCost = 1;
constexpr sim::Cycle kTrapEntryCost = 4;   // enter-kernel overhead floor
constexpr sim::Cycle kLoadStoreCost = 2;   // plus memory-system cost
constexpr sim::Cycle kAtomicCost = 8;      // lwarx/stwcx-style pair
constexpr sim::Cycle kL1HitCost = 1;
}  // namespace

Core::Core(int id, Node& node)
    : id_(id), node_(node), mmu_(64),
      l1_(32ULL << 10, /*lineBytes=*/32, /*ways=*/8) {}

void Core::bind(ThreadCtx* t) {
  cur_ = t;
  if (t != nullptr && t->state == ThreadState::kReady) {
    t->state = ThreadState::kRunning;
  }
  kick();
}

void Core::kick() {
  // During a slice the follow-on scheduling at slice end covers any
  // state change a handler made; scheduling here would create a second
  // concurrent slice stream for the core (time compression).
  // A hung core ignores kicks outright: raised IRQs stay latched in
  // pendingIrqs_ and are delivered after unhang().
  if (hung_ || inSlice_ || sliceScheduled_) return;
  sliceScheduled_ = true;
  node_.engine().scheduleTask(0, &sliceTask_);
}

void Core::raise(Irq irq) {
  pendingIrqs_ |= (1u << static_cast<int>(irq));
  kick();
}

void Core::setDecrementer(sim::Cycle delay) {
  if (delay == 0) {
    decDeadline_ = 0;
    if (decEvent_ != 0) {
      node_.engine().cancel(decEvent_);
      decEvent_ = 0;
    }
    return;
  }
  decDeadline_ = node_.engine().now() + delay;
  if (decEvent_ != 0) {
    // Re-arm to a deadline at or past the outstanding event: keep the
    // event. It fires (possibly early) and decFired() re-arms for the
    // remainder, so a tick handler that pushes the deadline out does
    // not pay a cancel+schedule pair per re-arm.
    if (decEventAt_ <= decDeadline_) return;
    node_.engine().cancel(decEvent_);
  }
  decEvent_ = node_.engine().scheduleTask(delay, &decTask_);
  decEventAt_ = decDeadline_;
}

void Core::decFired() {
  decEvent_ = 0;
  if (decDeadline_ == 0) return;  // disarmed after the event was queued
  const sim::Cycle now = node_.engine().now();
  if (now < decDeadline_) {
    // Deadline was pushed later while we were in flight; sleep out the
    // remainder.
    decEvent_ = node_.engine().scheduleTask(decDeadline_ - now, &decTask_);
    decEventAt_ = decDeadline_;
    return;
  }
  decDeadline_ = 0;
  raise(Irq::kDecrementer);
}

void Core::scheduleSlice(sim::Cycle delay) {
  if (sliceScheduled_) return;
  sliceScheduled_ = true;
  node_.engine().scheduleTask(delay, &sliceTask_);
}

sim::Cycle Core::lineCost(PAddr pa, sim::Cycle atRelativeCost) {
  // L1 hit: kL1HitCost. L1 miss -> shared cache; miss there -> DDR.
  if (l1_.access(pa)) return kL1HitCost;
  if (l1_.parityArmed() && l1_.judgeParity()) {
    // Parity flip on the freshly filled line: latch a syndrome and
    // machine-check; the kernel recovers by invalidate+refill
    // (paper §V-B), so the access itself completes.
    node_.pushMc(McSyndrome{McSyndrome::Kind::kParity, pa, id_});
    raise(Irq::kMachineCheck);
  }
  const sim::Cycle now = node_.engine().now() + sliceCost_ + atRelativeCost;
  const SharedCache::Result r = node_.l3().access(pa, now);
  sim::Cycle c = node_.l3().config().hitLatency + r.extraStall;
  if (!r.hit) {
    c += node_.ddr().accessLatency(now + c);
    if (node_.ddr().faultsArmed()) {
      switch (node_.ddr().judgeEcc()) {
        case EccOutcome::kCorrectable:
          // Single-bit flip: ECC already fixed the data in flight;
          // report so the kernel can scrub and count it.
          node_.pushMc(McSyndrome{McSyndrome::Kind::kCorrectable, pa, id_});
          raise(Irq::kMachineCheck);
          break;
        case EccOutcome::kUncorrectable:
          // Multi-bit flip: the data is gone. Latch so dataAccess
          // refuses to complete; the machine-check IRQ panics the
          // kernel at the next slice boundary.
          node_.pushMc(McSyndrome{McSyndrome::Kind::kUncorrectable, pa, id_});
          raise(Irq::kMachineCheck);
          ueLatched_ = true;
          break;
        case EccOutcome::kNone:
          break;
      }
    }
  }
  return c;
}

Core::AccessOutcome Core::dataAccess(ThreadCtx& t, VAddr va,
                                     std::uint32_t len, Access access) {
  AccessOutcome out;
  KernelIf* kern = node_.kernel();
  assert(kern != nullptr);

  // DAC (guard-page) check happens before translation: the debug
  // comparators watch effective addresses.
  if (mmu_.dacMatches(va, len, access)) {
    out.cost += kern->onFault(*this, t, FaultKind::kDacHit, va);
    return out;  // ok=false; fault path has run
  }

  Translation tr;
  TlbResult res = mmu_.translate(t.pid, va, access, &tr);
  if (res == TlbResult::kMiss) {
    HandlerResult hr = kern->onTlbMiss(*this, t, va, access);
    out.cost += hr.cost;
    if (hr.kind != HandlerResult::Kind::kDone) {
      return out;  // fault path handled by kernel (signal or kill)
    }
    res = mmu_.translate(t.pid, va, access, &tr);
    if (res == TlbResult::kMiss) {
      out.cost += kern->onFault(*this, t, FaultKind::kSegv, va);
      return out;
    }
  }
  if (res == TlbResult::kPermFault) {
    out.cost += kern->onFault(*this, t, FaultKind::kPermFault, va);
    return out;
  }
  out.cost += lineCost(tr.paddr, out.cost);
  if (ueLatched_) {
    // Uncorrectable ECC during the fill: the access must not retire.
    // The thread stops on the faulting instruction; the latched
    // machine check decides its fate before the core runs again.
    ueLatched_ = false;
    return out;  // ok=false
  }
  out.ok = true;
  out.pa = tr.paddr;
  return out;
}

Core::TouchOutcome Core::memTouch(ThreadCtx& t, VAddr va,
                                  std::uint32_t bytes, std::uint32_t stride,
                                  bool write) {
  TouchOutcome out;
  const std::uint64_t step = stride == 0 ? l1_.lineBytes() : stride;
  const std::uint32_t len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(step, 8));
  const Access acc = write ? Access::kWrite : Access::kRead;
  // An uncorrectable ECC error must stop the touch on its own access,
  // which dataAccess does. Parity needs no fallback: lineCost judges it
  // on each fill in order, hits never judge, and raise() only latches.
  const bool runs = !node_.ddr().faultsArmed();
  VAddr cur = va;
  const VAddr end = va + bytes;
  while (cur < end) {
    // A run: the accesses from cur on that start inside the page the
    // micro-TLB serves cur from. When no DAC range overlaps their hull
    // none of them traps, so each is one TLB hit plus its line cost,
    // exactly what dataAccess would charge one by one.
    std::uint64_t pageLeft = 0;
    PAddr pa = 0;
    if (runs && mmu_.microServes(t.pid, cur, acc, &pageLeft, &pa)) {
      const std::uint64_t n =
          (std::min<std::uint64_t>(end - cur, pageLeft) - 1) / step + 1;
      const VAddr last = cur + (n - 1) * step;
      if (!mmu_.dacMatches(cur, last - cur + len, acc)) {
        mmu_.countHits(n);
        for (std::uint64_t i = 0; i < n;) {
          const std::uint64_t hits = l1_.hitRun(pa + i * step, step, n - i);
          out.cost += hits * kL1HitCost;
          i += hits;
          if (i < n) {
            // The miss, at the relative cost dataAccess would pass
            // after a micro-TLB hit: 0.
            out.cost += lineCost(pa + i * step, 0);
            ++i;
          }
        }
        cur = last + step;
        continue;
      }
    }
    AccessOutcome a = dataAccess(t, cur, len, acc);
    out.cost += a.cost;
    if (!a.ok) return out;  // fault path already ran
    cur += step;
  }
  out.ok = true;
  return out;
}

sim::Cycle Core::execOne(ThreadCtx& t, bool* stop) {
  if (t.prog == nullptr || t.pc >= t.prog->size()) {
    // Running off the end of a program is a bug in the workload;
    // treat as a fault so the kernel can kill the thread cleanly.
    sim::Cycle c = node_.kernel()->onFault(*this, t, FaultKind::kSegv, t.pc);
    *stop = true;
    return c;
  }
  const vm::DecodedInstr& in = t.prog->decoded()[t.pc];
  std::uint64_t* r = t.regs;
  ++t.instrRetired;
  sim::Cycle c = 0;
  bool advance = true;

  using vm::Op;
  switch (in.op) {
    case Op::kNop:
      c = kAluCost;
      break;
    case Op::kLi:
      r[in.rd] = in.uimm;
      c = kAluCost;
      break;
    case Op::kMov:
      r[in.rd] = r[in.ra];
      c = kAluCost;
      break;
    case Op::kAdd:
      r[in.rd] = r[in.ra] + r[in.rb];
      c = kAluCost;
      break;
    case Op::kAddi:
      r[in.rd] = r[in.ra] + in.uimm;
      c = kAluCost;
      break;
    case Op::kSub:
      r[in.rd] = r[in.ra] - r[in.rb];
      c = kAluCost;
      break;
    case Op::kMul:
      r[in.rd] = r[in.ra] * r[in.rb];
      c = kAluCost + 4;
      break;
    case Op::kAnd:
      r[in.rd] = r[in.ra] & r[in.rb];
      c = kAluCost;
      break;
    case Op::kOr:
      r[in.rd] = r[in.ra] | r[in.rb];
      c = kAluCost;
      break;
    case Op::kXor:
      r[in.rd] = r[in.ra] ^ r[in.rb];
      c = kAluCost;
      break;
    case Op::kShl:
      r[in.rd] = r[in.ra] << (in.uimm & 63);
      c = kAluCost;
      break;
    case Op::kShr:
      r[in.rd] = r[in.ra] >> (in.uimm & 63);
      c = kAluCost;
      break;
    case Op::kJump:
      t.pc = in.uimm;
      advance = false;
      c = kBranchCost;
      break;
    case Op::kBeqz:
      if (r[in.ra] == 0) {
        t.pc = in.uimm;
        advance = false;
      }
      c = kBranchCost;
      break;
    case Op::kBnez:
      if (r[in.ra] != 0) {
        t.pc = in.uimm;
        advance = false;
      }
      c = kBranchCost;
      break;
    case Op::kBlt:
      if (r[in.ra] < r[in.rb]) {
        t.pc = in.uimm;
        advance = false;
      }
      c = kBranchCost;
      break;
    case Op::kCompute:
      c = static_cast<sim::Cycle>(in.uimm);
      break;
    case Op::kMemTouch: {
      const VAddr va = r[in.ra] + in.uimm;
      TouchOutcome o =
          memTouch(t, va, in.a, in.b, (in.flags & vm::kMemTouchWrite) != 0);
      c = o.cost + kAluCost;
      if (!o.ok) {
        *stop = true;
        advance = false;  // fault path controls pc
      }
      break;
    }
    case Op::kLoad: {
      const VAddr va = r[in.ra] + in.uimm;
      AccessOutcome a = dataAccess(t, va, 8, Access::kRead);
      c = a.cost + kLoadStoreCost;
      if (a.ok) {
        r[in.rd] = node_.mem().read64(a.pa);
      } else {
        *stop = true;
        advance = false;
      }
      break;
    }
    case Op::kStore: {
      const VAddr va = r[in.ra] + in.uimm;
      AccessOutcome a = dataAccess(t, va, 8, Access::kWrite);
      c = a.cost + kLoadStoreCost;
      if (a.ok) {
        node_.mem().write64(a.pa, r[in.rb]);
      } else {
        *stop = true;
        advance = false;
      }
      break;
    }
    case Op::kCas: {
      const VAddr va = r[in.ra];
      AccessOutcome a = dataAccess(t, va, 8, Access::kWrite);
      c = a.cost + kAtomicCost;
      if (a.ok) {
        const std::uint64_t old = node_.mem().read64(a.pa);
        r[in.rd] = old;
        if (old == r[in.rb]) node_.mem().write64(a.pa, r[in.flags]);
      } else {
        *stop = true;
        advance = false;
      }
      break;
    }
    case Op::kFetchAdd: {
      const VAddr va = r[in.ra];
      AccessOutcome a = dataAccess(t, va, 8, Access::kWrite);
      c = a.cost + kAtomicCost;
      if (a.ok) {
        const std::uint64_t old = node_.mem().read64(a.pa);
        r[in.rd] = old;
        node_.mem().write64(a.pa, old + r[in.rb]);
      } else {
        *stop = true;
        advance = false;
      }
      break;
    }
    case Op::kSyscall: {
      SyscallArgs args;
      args.nr = in.imm;
      for (int i = 0; i < 6; ++i) args.arg[i] = r[vm::kArg0 + i];
      // pc advances before the handler runs so blocked threads resume
      // after the syscall, and signal frames capture the resume point.
      ++t.pc;
      advance = false;
      HandlerResult hr = node_.kernel()->syscall(*this, t, args);
      c = kTrapEntryCost + hr.cost;
      switch (hr.kind) {
        case HandlerResult::Kind::kDone:
          r[vm::kRetReg] = hr.result;
          break;
        case HandlerResult::Kind::kBlocked:
          assert(t.state == ThreadState::kBlocked);
          *stop = true;
          break;
        case HandlerResult::Kind::kHaltThread:
          t.state = ThreadState::kHalted;
          node_.kernel()->onThreadHalt(*this, t);
          *stop = true;
          break;
        case HandlerResult::Kind::kReschedule:
          // Come off the core: the next slice asks the scheduler,
          // which may hand the core to someone else (or to another
          // core entirely, after a migration).
          cur_ = nullptr;
          *stop = true;
          break;
      }
      break;
    }
    case Op::kRtCall: {
      ++t.pc;
      advance = false;
      RuntimeIf* rt = node_.runtime();
      if (rt == nullptr) {
        c = node_.kernel()->onFault(*this, t, FaultKind::kSegv, t.pc);
        *stop = true;
        break;
      }
      HandlerResult hr = rt->rtcall(*this, t, in.imm);
      c = kTrapEntryCost + hr.cost;
      switch (hr.kind) {
        case HandlerResult::Kind::kDone:
          r[vm::kRetReg] = hr.result;
          break;
        case HandlerResult::Kind::kBlocked:
          *stop = true;
          break;
        case HandlerResult::Kind::kHaltThread:
          t.state = ThreadState::kHalted;
          node_.kernel()->onThreadHalt(*this, t);
          *stop = true;
          break;
        case HandlerResult::Kind::kReschedule:
          cur_ = nullptr;
          *stop = true;
          break;
      }
      break;
    }
    case Op::kReadTB:
      // Timebase reads must see intra-slice progress, or every read in
      // a batch would alias to the slice start.
      r[in.rd] = node_.engine().now() + sliceCost_ + c;
      c = kAluCost;
      break;
    case Op::kSample:
      if (t.samples != nullptr) t.samples->push_back(r[in.ra]);
      c = kAluCost;
      break;
    case Op::kHalt:
      t.exitStatus = in.imm;
      t.state = ThreadState::kHalted;
      node_.kernel()->onThreadHalt(*this, t);
      *stop = true;
      advance = false;
      break;
  }

  if (advance) ++t.pc;
  if (!t.runnable()) *stop = true;
  return c;
}

void Core::runSlice() {
  sliceScheduled_ = false;
  if (hung_) return;  // executes nothing; quiescent until unhang()
  inSlice_ = true;
  ++slicesRun_;
  sim::Cycle cost = 0;
  sliceCost_ = 0;
  KernelIf* kern = node_.kernel();

  // 1. Deliver pending interrupts (the handler may preempt / rebind).
  while (pendingIrqs_ != 0 && kern != nullptr) {
    const int bit = std::countr_zero(pendingIrqs_);
    pendingIrqs_ &= pendingIrqs_ - 1;
    HandlerResult hr = kern->onInterrupt(*this, static_cast<Irq>(bit));
    cost += hr.cost;
    sliceCost_ = cost;
  }

  // 2. Make sure we have a runnable current thread.
  if ((cur_ == nullptr || !cur_->runnable()) && kern != nullptr) {
    ThreadCtx* next = kern->pickNext(*this);
    if (next != nullptr && next != cur_) {
      cost += kern->contextSwitchCost();
      cur_ = next;
    } else if (next == nullptr) {
      cur_ = nullptr;
    }
  }

  if (cur_ == nullptr || !cur_->runnable()) {
    // Idle. If interrupt handling consumed time or more interrupts are
    // pending, probe again after the cost elapses; else go quiescent
    // until a kick.
    cyclesBusy_ += cost;
    inSlice_ = false;
    if (pendingIrqs_ != 0 || cost > 0) {
      scheduleSlice(std::max<sim::Cycle>(cost, 1));
    }
    return;
  }

  // Slice-granular fault injection (hang / spurious machine check),
  // judged only when a runnable thread is about to execute so the
  // draw sequence tracks work done, not idle probes.
  if (node_.sliceFaultsArmed() && node_.judgeSliceFaults(*this)) {
    // Hung mid-schedule: the slice never runs and no follow-on is
    // scheduled. cyclesBusy_ freezes — the heartbeat monitor's cue.
    cyclesBusy_ += cost;
    inSlice_ = false;
    return;
  }

  cur_->state = ThreadState::kRunning;

  // 3. Execute a batch.
  bool stop = false;
  while (!stop && cost < kDefaultQuantum) {
    sliceCost_ = cost;
    cost += execOne(*cur_, &stop);
  }
  sliceCost_ = 0;
  cyclesBusy_ += cost;
  inSlice_ = false;

  // 4. Schedule exactly one follow-on slice after the accumulated cost
  //    elapses. If the thread blocked or halted, that slice performs
  //    the pickNext decision at the correct time; if nothing is
  //    runnable then, it goes quiescent and a later kick revives us.
  scheduleSlice(std::max<sim::Cycle>(cost, 1));
}

std::uint64_t Core::scanHash() const {
  sim::Fnv1a h;
  h.mix(static_cast<std::uint64_t>(id_));
  h.mix(pendingIrqs_);
  if (hung_) h.mix(0xAC1D);  // conditional: fault-free digests unchanged
  if (cur_ != nullptr) {
    h.mix(cur_->pc).mix(cur_->tid).mix(static_cast<std::uint64_t>(cur_->state));
    for (int i = 0; i < vm::kNumRegs; ++i) h.mix(cur_->regs[i]);
  }
  for (const TlbEntry& e : mmu_.entries()) {
    if (e.valid) h.mix(e.vaddr).mix(e.paddr).mix(e.size).mix(e.perms);
  }
  return h.digest();
}

}  // namespace bg::hw
