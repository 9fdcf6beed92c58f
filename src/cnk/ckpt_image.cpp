// CNK application checkpoint/restart engine (image build/apply and the
// coordinated cut + two-phase commit). Format in ckpt_image.hpp.
//
// The simulator's single-threaded event engine means every thread's
// architectural context is consistent at any event boundary, so the
// "quiesce" of a real machine collapses to a rendezvous plus modeled
// cost. What remains genuinely hard — and what this file models — is
// *when* an image may be cut (shipped I/O must have drained, no
// un-serializable kernel state may be live) and how the image reaches
// stable storage without a crash window (write tmp, atomic rename).
#include "cnk/ckpt_image.hpp"

#include <algorithm>
#include <cstring>

#include "cnk/cnk_kernel.hpp"
#include "io/vfs.hpp"
#include "sim/bytes.hpp"

namespace bg::cnk {

using kernel::Process;
using kernel::Thread;
using hw::HandlerResult;

namespace {

/// Cut deferral while shipped I/O drains: re-poll cadence and budget.
constexpr sim::Cycle kCkptRepollCycles = 20'000;
constexpr int kCkptMaxRepolls = 16;

bool liveUserProc(const std::unique_ptr<Process>& p) {
  return !p->exited && !p->kernelResident;
}

bool allZero(std::span<const std::byte> buf) {
  return std::all_of(buf.begin(), buf.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

hw::HandlerResult CnkKernel::sysCkptSave(Thread& t) {
  const sim::Cycle base = kSyscallBaseCost;
  if (cfg_.ioNodeNetId < 0) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kENOSYS),
                               base);
  }
  if (ckpt_.restorePending) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEBUSY),
                               base);
  }
  // A service-initiated cut in flight, or a second thread of a process
  // already at the gate: the caller must not stack a second attempt.
  if (ckpt_.inProgress && ckpt_.waiters.empty()) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEBUSY),
                               base);
  }
  for (Thread* w : ckpt_.waiters) {
    if (w->proc.pid() == t.proc.pid()) {
      return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEBUSY),
                                 base);
    }
  }
  ckpt_.inProgress = true;
  ckpt_.waiters.push_back(&t);
  // Block without yielding, exactly like a shipped I/O syscall: the
  // core spins in-kernel at the rendezvous (the quiesce cost).
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  if (allProcsAtCkptGate()) {
    ckpt_.repolls = 0;
    // Defer the cut to a fresh event: this handler has not returned
    // yet, and a same-call failure path would otherwise wake the
    // caller before its block takes effect.
    engine().schedule(0, [this, g = ckpt_.gen] {
      if (g == ckpt_.gen) maybeCutCkpt();
    });
  }
  return HandlerResult::blocked(base + 400 /* rendezvous + kernel cut */);
}

hw::HandlerResult CnkKernel::sysCkptRestore(Thread& t) {
  const sim::Cycle base = kSyscallBaseCost;
  if (cfg_.ioNodeNetId < 0) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kENOSYS),
                               base);
  }
  if (ckpt_.inProgress || ckpt_.restorePending) {
    return HandlerResult::done(static_cast<std::uint64_t>(-kernel::kEBUSY),
                               base);
  }
  ckpt_.restorePending = true;
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  Thread* tp = &t;
  restoreFromImageFile([this, tp](bool ok) {
    // On success the caller's context was overwritten from the image
    // and rescheduled by the apply — waking it here would clobber the
    // restored registers. Only a failure resumes the caller in place.
    if (!ok) {
      wakeThread(*tp, static_cast<std::uint64_t>(-kernel::kENOENT));
    }
  });
  return HandlerResult::blocked(base + 400);
}

void CnkKernel::requestCheckpoint(std::function<void(bool)> done) {
  const bool anyLive =
      std::any_of(processes_.begin(), processes_.end(), liveUserProc);
  if (!booted_ || panicked_ || cfg_.ioNodeNetId < 0 || !anyLive ||
      ckpt_.inProgress || ckpt_.restorePending) {
    if (done) done(false);
    return;
  }
  ckpt_.inProgress = true;
  ckpt_.done = std::move(done);
  ckpt_.repolls = 0;
  maybeCutCkpt();
}

// ---------------------------------------------------------------------------
// Cut preconditions and the two-phase commit
// ---------------------------------------------------------------------------

bool CnkKernel::allProcsAtCkptGate() const {
  for (const auto& p : processes_) {
    if (!liveUserProc(p)) continue;
    const bool arrived =
        std::any_of(ckpt_.waiters.begin(), ckpt_.waiters.end(),
                    [&](Thread* w) { return w->proc.pid() == p->pid(); });
    if (!arrived) return false;
  }
  return true;
}

void CnkKernel::maybeCutCkpt() {
  if (!ckpt_.inProgress) return;
  // Shipped I/O still in flight: its completion will mutate user
  // memory and wake a thread, neither of which may straddle the cut.
  // Defer (bounded) until the channel drains.
  if (fship_->pendingCount() > 0) {
    if (++ckpt_.repolls > kCkptMaxRepolls) {
      failCheckpoint(kernel::kEBUSY);
      return;
    }
    engine().schedule(kCkptRepollCycles, [this, g = ckpt_.gen] {
      if (g == ckpt_.gen) maybeCutCkpt();
    });
    return;
  }
  for (const auto& p : processes_) {
    if (!liveUserProc(p)) continue;
    // With shipped I/O drained, a thread still blocked outside the
    // rendezvous is a futex waiter; the kernel-side wait queue entry
    // is not in the image, so a restore would strand it forever.
    for (const auto& th : p->threads()) {
      if (th->ctx.state != hw::ThreadState::kBlocked) continue;
      const bool isWaiter =
          std::find(ckpt_.waiters.begin(), ckpt_.waiters.end(), th.get()) !=
          ckpt_.waiters.end();
      if (!isWaiter) {
        failCheckpoint(kernel::kEBUSY);
        return;
      }
    }
    // Remote fd state lives in the ioproxy/shadow pair, not the image;
    // a restored process would hold dangling descriptors.
    if (fship_->shadowFdCount(p->pid()) > 0) {
      failCheckpoint(kernel::kEBUSY);
      return;
    }
  }
  cutCkptNow();
}

void CnkKernel::cutCkptNow() {
  const std::uint32_t seq = ckpt_.nextSeq++;
  std::uint32_t pid0 = 0;
  for (const auto& p : processes_) {
    if (liveUserProc(p)) {
      pid0 = p->pid();
      break;
    }
  }
  logRas(kernel::RasEvent::Code::kCkptBegin, pid0, 0, seq);
  shipCkptImage(seq, buildCkptImage(seq));
}

void CnkKernel::failCheckpoint(std::int64_t err) {
  ++ckpt_.failures;
  ++ckpt_.gen;
  std::uint32_t pid0 = 0;
  for (const auto& p : processes_) {
    if (liveUserProc(p)) {
      pid0 = p->pid();
      break;
    }
  }
  logRas(kernel::RasEvent::Code::kCkptFailed, pid0, 0,
         static_cast<std::uint64_t>(err));
  auto waiters = std::move(ckpt_.waiters);
  auto done = std::move(ckpt_.done);
  ckpt_.waiters.clear();
  ckpt_.done = nullptr;
  ckpt_.inProgress = false;
  ckpt_.repolls = 0;
  for (Thread* w : waiters) {
    wakeThread(*w, static_cast<std::uint64_t>(-err));
  }
  if (done) done(false);
}

void CnkKernel::finishCkptCommit(std::uint32_t seq, std::uint64_t bytes) {
  ++ckpt_.gen;
  ckpt_.committedSeq = seq;
  ckpt_.lastBytes = bytes;
  ++ckpt_.commits;
  std::uint32_t pid0 = 0;
  for (const auto& p : processes_) {
    if (liveUserProc(p)) {
      pid0 = p->pid();
      break;
    }
  }
  logRas(kernel::RasEvent::Code::kCkptCommit, pid0, 0, seq);
  auto waiters = std::move(ckpt_.waiters);
  auto done = std::move(ckpt_.done);
  ckpt_.waiters.clear();
  ckpt_.done = nullptr;
  ckpt_.inProgress = false;
  ckpt_.repolls = 0;
  for (Thread* w : waiters) wakeThread(*w, 0);
  if (done) done(true);
}

void CnkKernel::shipCkptImage(std::uint32_t seq, std::vector<std::byte> bytes) {
  // Kernel-internal chain on the (pid=0, tid=0) control channel,
  // mirroring shipCoredump: mkdir /ckpt (EEXIST fine) -> creat tmp ->
  // write -> close -> rename tmp onto the committed name. The fship
  // watchdog/retransmit layer makes each leg reliable and CIOD's
  // replay cache makes the retransmitted rename exactly-once, so the
  // commit point is exactly the rename.
  const std::string tmpPath = ckpt::imageTmpPath(ckpt_.jobId, ckpt_.firstRank);
  const std::string finalPath = ckpt::imagePath(ckpt_.jobId, ckpt_.firstRank);
  const std::uint64_t size = bytes.size();
  const std::uint64_t g = ckpt_.gen;
  fship_->shipRaw(
      io::FsOp::kMkdir, 0, 0, 0, 0, 0, "/ckpt", {},
      [this, g, seq, size, tmpPath, finalPath,
       bytes = std::move(bytes)](io::FsReply&&) mutable {
        if (g != ckpt_.gen) return;
        fship_->shipRaw(
            io::FsOp::kOpen, 0, 0,
            kernel::kOWronly | kernel::kOCreat | kernel::kOTrunc, 0, 0,
            tmpPath, {},
            [this, g, seq, size, tmpPath, finalPath,
             bytes = std::move(bytes)](io::FsReply&& orep) mutable {
              if (g != ckpt_.gen) return;
              if (orep.result < 0) {
                failCheckpoint(kernel::kEIO);
                return;
              }
              const auto fd = static_cast<std::uint64_t>(orep.result);
              fship_->shipRaw(
                  io::FsOp::kWrite, 0, 0, fd, size, 0, {}, std::move(bytes),
                  [this, g, seq, size, fd, tmpPath,
                   finalPath](io::FsReply&& wrep) {
                    if (g != ckpt_.gen) return;
                    const bool wok =
                        wrep.result == static_cast<std::int64_t>(size);
                    fship_->shipRaw(
                        io::FsOp::kClose, 0, 0, fd, 0, 0, {}, {},
                        [this, g, seq, size, wok, tmpPath,
                         finalPath](io::FsReply&&) {
                          if (g != ckpt_.gen) return;
                          if (!wok) {
                            failCheckpoint(kernel::kEIO);
                            return;
                          }
                          std::vector<std::byte> np(finalPath.size());
                          std::memcpy(np.data(), finalPath.data(),
                                      finalPath.size());
                          fship_->shipRaw(
                              io::FsOp::kRename, 0, 0, 0, 0, 0, tmpPath,
                              std::move(np),
                              [this, g, seq, size](io::FsReply&& rrep) {
                                if (g != ckpt_.gen) return;
                                if (rrep.result < 0) {
                                  failCheckpoint(kernel::kEIO);
                                } else {
                                  finishCkptCommit(seq, size);
                                }
                              });
                        });
                  });
            });
      });
}

// ---------------------------------------------------------------------------
// Restore chain
// ---------------------------------------------------------------------------

void CnkKernel::restoreFromImageFile(std::function<void(bool)> done) {
  // stat (image size) -> open -> read the exact size at offset 0 ->
  // close -> validate + apply. Any missing/short/torn image resolves
  // to a scratch restart through the caller's completion.
  const std::string path = ckpt::imagePath(ckpt_.jobId, ckpt_.firstRank);
  const std::uint64_t g = ckpt_.gen;
  fship_->shipRaw(
      io::FsOp::kStat, 0, 0, 0, 0, 0, path, {},
      [this, g, path, done = std::move(done)](io::FsReply&& srep) mutable {
        if (g != ckpt_.gen) return;
        const std::optional<io::FileStat> st =
            io::FileStat::decode(srep.payload);
        if (srep.result < 0 || !st || st->isDir || st->size == 0 ||
            st->size > ckpt::kMaxImageBytes) {
          finishCkptRestore(false, std::move(done));
          return;
        }
        const std::uint64_t size = st->size;
        fship_->shipRaw(
            io::FsOp::kOpen, 0, 0, kernel::kORdonly, 0, 0, path, {},
            [this, g, size, done = std::move(done)](io::FsReply&& orep) mutable {
              if (g != ckpt_.gen) return;
              if (orep.result < 0) {
                finishCkptRestore(false, std::move(done));
                return;
              }
              const auto fd = static_cast<std::uint64_t>(orep.result);
              fship_->shipRaw(
                  io::FsOp::kRead, 0, 0, fd, size, 0, {}, {},
                  [this, g, fd, size,
                   done = std::move(done)](io::FsReply&& rrep) mutable {
                    if (g != ckpt_.gen) return;
                    const bool readOk =
                        rrep.result == static_cast<std::int64_t>(size);
                    auto img = std::move(rrep.payload);
                    fship_->shipRaw(
                        io::FsOp::kClose, 0, 0, fd, 0, 0, {}, {},
                        [this, g, readOk, img = std::move(img),
                         done = std::move(done)](io::FsReply&&) mutable {
                          if (g != ckpt_.gen) return;
                          const bool ok = readOk && applyCkptImage(img);
                          finishCkptRestore(ok, std::move(done));
                        });
                  });
            });
      });
}

void CnkKernel::finishCkptRestore(bool ok, std::function<void(bool)> done) {
  ++ckpt_.gen;
  ckpt_.restorePending = false;
  std::uint32_t pid0 = 0;
  for (const auto& p : processes_) {
    if (liveUserProc(p)) {
      pid0 = p->pid();
      break;
    }
  }
  if (ok) {
    ++ckpt_.restores;
    logRas(kernel::RasEvent::Code::kCkptRestore, pid0, 0,
           ckpt_.committedSeq);
  } else {
    ++ckpt_.failures;
    logRas(kernel::RasEvent::Code::kCkptFailed, pid0, 0,
           static_cast<std::uint64_t>(kernel::kENOENT));
  }
  if (done) done(ok);
}

// ---------------------------------------------------------------------------
// Image build
// ---------------------------------------------------------------------------

std::vector<std::byte> CnkKernel::buildCkptImage(std::uint32_t seq) {
  sim::ByteWriter w;
  w.u32(ckpt::kMagic);
  w.u32(ckpt::kVersion);
  w.u32(seq);
  w.u64(engine().now());
  w.u32(static_cast<std::uint32_t>(node_.id()));
  w.u32(ckpt_.jobId);
  const Thread* initiator = ckpt_.waiters.empty() ? nullptr : ckpt_.waiters[0];
  w.u32(initiator ? initiator->proc.pid() : 0);
  w.u32(initiator ? initiator->ctx.tid : 0);

  std::vector<Process*> procs;
  for (const auto& p : processes_) {
    if (liveUserProc(p)) procs.push_back(p.get());
  }
  w.u32(static_cast<std::uint32_t>(procs.size()));

  for (Process* p : procs) {
    w.u32(static_cast<std::uint32_t>(p->rank));
    w.u64(p->brk);
    w.u64(p->lastMprotectAddr);
    w.u64(p->lastMprotectLen);
    w.str(p->cwd);
    for (const kernel::SigHandler& s : p->sig) {
      w.u8(s.installed ? 1 : 0);
      w.u64(s.entry);
    }
    mmap_[p->pid()].saveTo(w);

    const std::vector<int>& cores = procCores_[p->pid()];
    w.u32(static_cast<std::uint32_t>(p->threads().size()));
    for (const auto& th : p->threads()) {
      const bool isWaiter =
          std::find(ckpt_.waiters.begin(), ckpt_.waiters.end(), th.get()) !=
          ckpt_.waiters.end();
      w.u32(th->ctx.tid);
      // Normalize: a running thread resumes ready; a gate waiter
      // resumes ready with ckpt_save returning 1 ("resumed from
      // checkpoint" — its pc is already past the syscall).
      hw::ThreadState st = th->ctx.state;
      if (st == hw::ThreadState::kRunning ||
          st == hw::ThreadState::kBlocked) {
        st = hw::ThreadState::kReady;
      }
      w.u8(static_cast<std::uint8_t>(st));
      w.u64(th->ctx.pc);
      w.u64(th->ctx.instrRetired);
      w.u64(th->guardLo);
      w.u64(th->guardHi);
      w.u64(th->clearChildTid);
      int slot = 0;
      const auto it =
          std::find(cores.begin(), cores.end(), th->ctx.coreAffinity);
      if (it != cores.end()) {
        slot = static_cast<int>(std::distance(cores.begin(), it));
      }
      w.u32(static_cast<std::uint32_t>(slot));
      for (int i = 0; i < vm::kNumRegs; ++i) {
        std::uint64_t v = th->ctx.regs[i];
        if (isWaiter && i == vm::kRetReg) v = 1;
        w.u64(v);
      }
    }

    // Writable static regions, sparsely: all-zero granules elided
    // (restore zeroes the region first). Text is rebuilt by the job
    // loader from the executable, so it is not in the image.
    std::vector<const kernel::MemRegionDesc*> regs;
    for (const kernel::MemRegionDesc& r : p->regions) {
      if ((r.perms & hw::kPermW) != 0 && r.size > 0) regs.push_back(&r);
    }
    w.u32(static_cast<std::uint32_t>(regs.size()));
    for (const kernel::MemRegionDesc* r : regs) {
      w.str(r->name);
      w.u64(r->vbase);
      w.u64(r->size);
      w.u8(r->perms);
      // Chunks in never-written frames read as zero: skip them without
      // a read. Chunks in present frames are read straight into the
      // image and dropped again if they hold only zeros.
      const std::size_t countAt = w.size();
      w.u32(0);  // chunk count, patched below
      std::uint32_t nChunks = 0;
      for (std::uint64_t off = 0; off < r->size; off += ckpt::kChunkBytes) {
        const std::uint64_t len = std::min(ckpt::kChunkBytes, r->size - off);
        if (!node_.mem().anyFramePresent(r->pbase + off, len)) continue;
        const std::size_t mark = w.size();
        w.u64(off);
        w.u64(len);
        const std::span<std::byte> data = w.grow(static_cast<std::size_t>(len));
        node_.mem().read(r->pbase + off, data);
        if (allZero(data)) {
          w.truncate(mark);
        } else {
          ++nChunks;
        }
      }
      w.patchU32(countAt, nChunks);
    }
  }

  return sim::seal(std::move(w));
}

// ---------------------------------------------------------------------------
// Image apply
// ---------------------------------------------------------------------------

bool CnkKernel::applyCkptImage(const std::vector<std::byte>& bytes) {
  // Seal first: a torn tmp image (crash mid-write) must be rejected
  // before any state is touched.
  const auto body = sim::unseal(bytes);
  if (!body) return false;

  sim::ByteReader r(*body);
  if (r.u32() != ckpt::kMagic) return false;
  if (r.u32() != ckpt::kVersion) return false;
  const std::uint32_t seq = r.u32();
  r.u64();  // takenAt (informational)
  r.u32();  // nodeId at save time; a requeue may land elsewhere
  const std::uint32_t jobId = r.u32();
  if (jobId != ckpt_.jobId) return false;
  r.u32();  // initiator pid
  r.u32();  // initiator tid

  std::vector<Process*> procs;
  for (const auto& p : processes_) {
    if (liveUserProc(p)) procs.push_back(p.get());
  }
  if (r.u32() != procs.size()) return false;

  for (Process* p : procs) {
    if (r.u32() != static_cast<std::uint32_t>(p->rank)) return false;
    p->brk = r.u64();
    p->lastMprotectAddr = r.u64();
    p->lastMprotectLen = r.u64();
    p->cwd = r.str();
    for (kernel::SigHandler& s : p->sig) {
      s.installed = r.u8() != 0;
      s.entry = r.u64();
    }
    if (!mmap_[p->pid()].loadFrom(r)) return false;

    const std::vector<int>& cores = procCores_[p->pid()];
    const std::uint32_t nThreads = r.u32();
    if (nThreads == 0 ||
        nThreads > cores.size() * static_cast<std::size_t>(
                                      sched_.maxThreadsPerCore())) {
      return false;
    }
    for (std::uint32_t i = 0; i < nThreads; ++i) {
      Thread* th;
      if (i < p->threads().size()) {
        th = p->threads()[i].get();
        futex_.remove(th);  // no wait-queue entry survives a restore
      } else {
        Thread& nt = p->addThread(allocTid());
        nt.ctx.prog = &p->exe()->program();
        nt.ctx.samples =
            sampleSink_ ? sampleSink_(*p, static_cast<int>(i)) : nullptr;
        th = &nt;
      }
      r.u32();  // tid at save time; this boot's tids are authoritative
      const auto st = static_cast<hw::ThreadState>(r.u8());
      th->ctx.pc = r.u64();
      th->ctx.instrRetired = r.u64();
      th->guardLo = r.u64();
      th->guardHi = r.u64();
      th->clearChildTid = r.u64();
      const std::uint32_t slot = r.u32();
      if (slot >= cores.size()) return false;
      for (int j = 0; j < vm::kNumRegs; ++j) th->ctx.regs[j] = r.u64();
      if (st != hw::ThreadState::kReady && st != hw::ThreadState::kHalted &&
          st != hw::ThreadState::kFaulted) {
        return false;
      }
      th->ctx.state = st;
      th->ctx.yieldOnBlock = true;
      if (i >= 1 && th->ctx.coreAffinity < 0) {
        if (!sched_.assign(*th, cores[slot])) return false;
      }
    }
    // Threads this boot has beyond the image (in-run restore after a
    // clone): they did not exist at the cut, so they do not exist now.
    for (std::size_t i = nThreads; i < p->threads().size(); ++i) {
      Thread* extra = p->threads()[i].get();
      if (!extra->ctx.done()) killThread(*extra);
    }

    const std::uint32_t nRegions = r.u32();
    for (std::uint32_t i = 0; i < nRegions && r.ok(); ++i) {
      const std::string name = r.str();
      const std::uint64_t vbase = r.u64();
      const std::uint64_t size = r.u64();
      r.u8();  // perms (informational)
      const kernel::MemRegionDesc* d = p->regionNamed(name);
      if (d == nullptr || d->vbase != vbase || d->size != size) return false;
      node_.mem().zero(d->pbase, d->size);
      const std::uint32_t nChunks = r.u32();
      for (std::uint32_t c = 0; c < nChunks && r.ok(); ++c) {
        const std::uint64_t off = r.u64();
        const std::uint64_t len = r.u64();
        if (len == 0 || len > ckpt::kChunkBytes || off + len > size) {
          return false;
        }
        const std::span<const std::byte> data =
            r.view(static_cast<std::size_t>(len));
        if (!r.ok()) return false;
        node_.mem().write(d->pbase + off, data);
      }
    }
    if (!r.ok()) return false;
  }
  if (!r.ok()) return false;

  ckpt_.committedSeq = seq;
  ckpt_.nextSeq = seq + 1;
  sched_.reapDone();
  for (Process* p : procs) {
    for (int c : procCores_[p->pid()]) node_.core(c).kick();
  }
  return true;
}

}  // namespace bg::cnk
