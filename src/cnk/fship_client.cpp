#include "cnk/fship_client.hpp"

#include <algorithm>
#include <cassert>

#include "io/vfs.hpp"
#include "kernel/syscalls.hpp"
#include "sim/bytes.hpp"

namespace bg::cnk {

FshipClient::FshipClient(kernel::KernelBase& kern, int ioNodeNetId,
                         Config cfg)
    : kern_(kern), ioNodeNetId_(ioNodeNetId), cfg_(cfg) {}

void FshipClient::attach() {
  kern_.node().collective()->setHandler(
      kern_.node().id(),
      [this](hw::CollPacket&& pkt) { onReply(std::move(pkt)); });
}

std::string FshipClient::absolutizeShadow(const ProcShadow& ps,
                                          const std::string& path) const {
  if (!path.empty() && path[0] == '/') return io::normalizePath(path);
  return io::normalizePath(ps.cwd + "/" + path);
}

void FshipClient::transmit(PendingOp& op) {
  ++op.attempts;
  auto bytes = op.req.encode();
  stats_.bytesShipped += bytes.size();

  hw::CollPacket pkt;
  pkt.srcNode = kern_.node().id();
  pkt.dstNode = ioNodeNetId_;
  pkt.channel = io::kChanFshipRequest;
  pkt.payload = std::move(bytes);
  kern_.node().collective()->send(std::move(pkt));
}

void FshipClient::armTimer(const ChanKey& key, PendingOp& op,
                           sim::Cycle delay, bool grace) {
  cancelTimer(op);
  const std::uint64_t seq = op.req.seq;
  op.timer = kern_.engine().schedule(delay, [this, key, seq, grace] {
    if (grace) {
      onGraceExpired(key, seq);
    } else {
      onTimeout(key, seq);
    }
  });
}

void FshipClient::cancelTimer(PendingOp& op) {
  if (op.timer) {
    kern_.engine().cancel(*op.timer);
    op.timer.reset();
  }
}

sim::Cycle FshipClient::shipRaw(io::FsOp op, std::uint32_t pid,
                                std::uint32_t tid, std::uint64_t a0,
                                std::uint64_t a1, std::uint64_t a2,
                                std::string path,
                                std::vector<std::byte> payload,
                                Completion completion) {
  PendingOp p;
  p.req.srcNode = kern_.node().id();
  p.req.pid = pid;
  p.req.tid = tid;
  p.req.op = op;
  p.req.a0 = a0;
  p.req.a1 = a1;
  p.req.a2 = a2;
  p.req.path = std::move(path);
  p.req.payload = std::move(payload);
  p.completion = std::move(completion);
  ++stats_.requests;
  const sim::Cycle cost = marshalCost(p.req.payload.size());

  const ChanKey key{pid, tid};
  const auto busy = pending_.find(key);
  if (busy == pending_.end()) {
    start(key, std::move(p));
  } else if (op == io::FsOp::kRestoreState) {
    // A restore rebuilds the ioproxy every other op of the process
    // needs, so it takes the channel at once. The op it displaces
    // (parked by rehome) runs again after the ack under a fresh seq:
    // the spare's replay cache would drop its old, lower one as stale.
    cancelTimer(busy->second);
    queued_[key].push_front(std::move(busy->second));
    pending_.erase(busy);
    start(key, std::move(p));
  } else {
    queued_[key].push_back(std::move(p));
  }
  return cost;
}

void FshipClient::start(const ChanKey& key, PendingOp op) {
  op.req.seq = ++nextSeq_[key];
  // Idempotency: read/write carry the shadow offset explicitly, so a
  // retransmitted (or replayed-after-failover) op hits the same file
  // range and produces the same result.
  if (op.req.op == io::FsOp::kRead || op.req.op == io::FsOp::kWrite) {
    auto sit = shadow_.find(key.first);
    if (sit != shadow_.end()) {
      auto fit = sit->second.fds.find(static_cast<int>(op.req.a0));
      if (fit != sit->second.fds.end()) op.req.a2 = fit->second->offset;
    }
  }
  op.attempts = 0;
  op.timeout = cfg_.requestTimeout;
  // While the ioproxy on a replacement I/O node is not rebuilt yet,
  // the op parks behind the restore ack and is transmitted then.
  op.parked = shadow_[key.first].awaitingRestore &&
              op.req.op != io::FsOp::kRestoreState;
  const auto [it, inserted] = pending_.emplace(key, std::move(op));
  assert(inserted && "channel already has an op in flight");
  (void)inserted;
  if (!it->second.parked) {
    transmit(it->second);
    armTimer(key, it->second, it->second.timeout, /*grace=*/false);
  }
}

void FshipClient::retire(std::map<ChanKey, PendingOp>::iterator it) {
  const ChanKey key = it->first;
  pending_.erase(it);
  const auto q = queued_.find(key);
  if (q == queued_.end()) return;
  PendingOp next = std::move(q->second.front());
  q->second.pop_front();
  if (q->second.empty()) queued_.erase(q);
  start(key, std::move(next));
}

std::size_t FshipClient::pendingCount() const {
  std::size_t n = pending_.size();
  for (const auto& [key, q] : queued_) n += q.size();
  return n;
}

hw::HandlerResult FshipClient::ship(kernel::Thread& t, io::FsOp op,
                                    std::uint64_t a0, std::uint64_t a1,
                                    std::uint64_t a2, std::string path,
                                    std::vector<std::byte> payload,
                                    hw::VAddr userBuf,
                                    std::uint64_t userLen) {
  kernel::Thread* tp = &t;
  kernel::KernelBase* kern = &kern_;
  FshipStats* stats = &stats_;
  const sim::Cycle cost =
      shipRaw(op, t.ctx.pid, t.ctx.tid, a0, a1, a2, std::move(path),
              std::move(payload),
              [tp, kern, stats, userBuf, userLen](io::FsReply&& rep) {
                stats->bytesReceived += rep.payload.size();
                // stat-style ops succeed with result 0 but still carry
                // a payload; copy whenever the op did not fail.
                if (userBuf != 0 && !rep.payload.empty() &&
                    rep.result >= 0) {
                  const std::size_t n = std::min<std::size_t>(
                      rep.payload.size(),
                      static_cast<std::size_t>(userLen));
                  kern->copyToUser(tp->proc, userBuf,
                                   std::span(rep.payload.data(), n));
                }
                kern->wakeThread(*tp,
                                 static_cast<std::uint64_t>(rep.result));
              });

  // Block without yielding: the core spins until the reply.
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return hw::HandlerResult::blocked(cost);
}

void FshipClient::onTimeout(const ChanKey& key, std::uint64_t seq) {
  auto it = pending_.find(key);
  if (it == pending_.end() || it->second.req.seq != seq) return;  // stale
  PendingOp& op = it->second;
  op.timer.reset();  // it just fired
  ++stats_.timeouts;

  if (op.attempts <= cfg_.maxRetries) {
    ++stats_.retransmits;
    op.timeout = std::min(op.timeout * 2, cfg_.maxTimeout);
    transmit(op);
    armTimer(key, op, op.timeout, /*grace=*/false);
    return;
  }
  giveUp(key, op);
}

void FshipClient::giveUp(const ChanKey& key, PendingOp& op) {
  // Satellite-1 watchdog: a lost reply becomes RAS + (eventually) EIO
  // instead of a permanently blocked thread.
  kern_.logRas(kernel::RasEvent::Code::kIoTimeout,
               kernel::RasEvent::Severity::kWarn, op.req.pid, op.req.tid,
               op.req.seq);
  declareIoNodeDead();

  if (op.req.op == io::FsOp::kRestoreState) {
    // The failover path itself is dead: everything queued behind this
    // restore fails over to -EIO, and the dead declaration above lets
    // the service node try the next spare.
    const std::uint32_t pid = op.req.pid;
    shadow_[pid].awaitingRestore = false;
    retire(pending_.find(key));
    std::vector<ChanKey> gated;
    for (auto& [k, p] : pending_) {
      if (k.first == pid && p.parked) gated.push_back(k);
    }
    for (const ChanKey& k : gated) abandonWithEio(k);
    return;
  }

  if (cfg_.failoverGrace > 0) {
    // Park: a service-node failover may still rescue this op; rehome()
    // retransmits it to the spare with full credit.
    op.parked = true;
    armTimer(key, op, cfg_.failoverGrace, /*grace=*/true);
    return;
  }
  abandonWithEio(key);
}

void FshipClient::onGraceExpired(const ChanKey& key, std::uint64_t seq) {
  auto it = pending_.find(key);
  if (it == pending_.end() || it->second.req.seq != seq) return;
  it->second.timer.reset();
  if (!it->second.parked) return;  // rescued by a rehome in the meantime
  abandonWithEio(key);
}

void FshipClient::abandonWithEio(const ChanKey& key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  cancelTimer(it->second);
  Completion c = std::move(it->second.completion);
  io::FsReply rep;
  rep.seq = it->second.req.seq;
  rep.srcNode = it->second.req.srcNode;
  rep.pid = it->second.req.pid;
  rep.tid = it->second.req.tid;
  rep.result = -kernel::kEIO;
  retire(it);
  ++stats_.eioReturns;
  // Shadow state is deliberately not touched: the op's server-side
  // effect is unknown (the reply may have been lost after commit) —
  // honest EIO semantics.
  if (c) c(std::move(rep));
}

void FshipClient::declareIoNodeDead() {
  if (ioNodeDead_) return;
  ioNodeDead_ = true;
  kern_.logRas(kernel::RasEvent::Code::kIoNodeDead,
               kernel::RasEvent::Severity::kError, 0, 0,
               static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(ioNodeNetId_)));
}

void FshipClient::sendRestore(std::uint32_t pid) {
  ProcShadow& ps = shadow_[pid];
  io::ShadowSnapshot snap;
  snap.pid = pid;
  snap.nextFd = ps.nextFd;
  snap.cwd = ps.cwd;
  std::map<const ShadowFile*, int> firstFdOf;
  for (const auto& [fd, file] : ps.fds) {  // ascending fd order
    io::ShadowSnapshot::Fd e;
    e.fd = fd;
    auto fit = firstFdOf.find(file.get());
    if (fit != firstFdOf.end()) {
      e.shareWithFd = fit->second;  // dup group: share the description
    } else {
      firstFdOf.emplace(file.get(), fd);
      e.flags = file->flags;
      e.offset = file->offset;
      e.path = file->path;
    }
    snap.fds.push_back(std::move(e));
  }
  ++stats_.restoresSent;
  shipRaw(io::FsOp::kRestoreState, pid, /*tid=*/0, 0, 0, 0, {},
          snap.encode(), nullptr);
}

void FshipClient::rehome(int newIoNodeNetId) {
  ioNodeNetId_ = newIoNodeNetId;
  ioNodeDead_ = false;
  ++stats_.rehomes;

  // Stale restores from a previous (also-failed) rehome are
  // superseded outright; everything else parks behind the new
  // restore and is retransmitted — exactly once, thanks to the
  // explicit offsets and the replay cache — when it acks.
  for (auto it = pending_.begin(); it != pending_.end();) {
    cancelTimer(it->second);
    if (it->second.req.op == io::FsOp::kRestoreState) {
      it = pending_.erase(it);  // its queue waits for the new restore
    } else {
      it->second.parked = true;
      ++it;
    }
  }

  // Every process with I/O state or in-flight ops needs its ioproxy
  // rebuilt before anything else lands on the spare.
  std::vector<std::uint32_t> pids;
  for (const auto& [pid, ps] : shadow_) {
    if (ps.dirty()) pids.push_back(pid);
  }
  for (const auto& [key, p] : pending_) {
    if (!shadow_[key.first].dirty()) pids.push_back(key.first);
  }
  for (const auto& [key, q] : queued_) {
    if (!shadow_[key.first].dirty()) pids.push_back(key.first);
  }
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
  for (const std::uint32_t pid : pids) {
    shadow_[pid].awaitingRestore = true;
    sendRestore(pid);
  }
}

void FshipClient::reset() {
  for (auto& [key, p] : pending_) cancelTimer(p);
  pending_.clear();
  queued_.clear();
  shadow_.clear();
  // Sequence numbers are deliberately NOT cleared: CIOD's per-channel
  // replay cache outlives the job, and the kernel-internal (pid 0,
  // tid 0) control channel — coredumps, checkpoint images — is reused
  // by the next job on this node. A restarted sequence would sort
  // below the cached seq and be stale-dropped; monotonic seqs keep
  // every fresh request servable while duplicate suppression still
  // works.
  ioNodeDead_ = false;
}

void FshipClient::applyShadow(const io::FsRequest& req,
                              const io::FsReply& rep) {
  if (rep.result < 0) return;
  ProcShadow& ps = shadow_[req.pid];
  switch (req.op) {
    case io::FsOp::kOpen: {
      const int fd = static_cast<int>(rep.result);
      auto file = std::make_shared<ShadowFile>();
      file->path = absolutizeShadow(ps, req.path);
      file->flags = req.a0;
      // The reply carries the fd's initial offset (nonzero for
      // O_APPEND, where only the server knows the file size).
      sim::ByteReader r(rep.payload);
      const std::uint64_t off = r.u64();
      if (r.ok()) file->offset = off;
      ps.fds[fd] = std::move(file);
      ps.nextFd = std::max(ps.nextFd, fd + 1);
      break;
    }
    case io::FsOp::kClose:
      ps.fds.erase(static_cast<int>(req.a0));
      break;
    case io::FsOp::kRead:
    case io::FsOp::kWrite: {
      auto it = ps.fds.find(static_cast<int>(req.a0));
      if (it != ps.fds.end()) {
        it->second->offset =
            req.a2 + static_cast<std::uint64_t>(rep.result);
      }
      break;
    }
    case io::FsOp::kLseek: {
      auto it = ps.fds.find(static_cast<int>(req.a0));
      if (it != ps.fds.end()) {
        it->second->offset = static_cast<std::uint64_t>(rep.result);
      }
      break;
    }
    case io::FsOp::kDup: {
      auto it = ps.fds.find(static_cast<int>(req.a0));
      if (it != ps.fds.end()) {
        const int nfd = static_cast<int>(rep.result);
        ps.fds[nfd] = it->second;
        ps.nextFd = std::max(ps.nextFd, nfd + 1);
      }
      break;
    }
    case io::FsOp::kChdir:
      ps.cwd = absolutizeShadow(ps, req.path);
      break;
    default:
      break;
  }
}

void FshipClient::onReply(hw::CollPacket&& pkt) {
  if (pkt.channel != io::kChanFshipReply) return;
  auto rep = io::FsReply::decode(pkt.payload);
  if (!rep) {
    // Corruption detected by the checksum; the watchdog retransmits.
    ++stats_.corruptReplies;
    return;
  }
  const ChanKey key{rep->pid, rep->tid};
  auto it = pending_.find(key);
  if (it == pending_.end() || it->second.req.seq != rep->seq) {
    // Duplicate delivery, or a late reply to an op already resolved
    // (retransmit raced the original, or the watchdog gave up).
    ++stats_.duplicateReplies;
    return;
  }
  PendingOp& op = it->second;
  cancelTimer(op);
  ++stats_.repliesMatched;
  applyShadow(op.req, *rep);

  if (op.req.op == io::FsOp::kRestoreState) {
    const std::uint32_t pid = op.req.pid;
    shadow_[pid].awaitingRestore = false;
    // Flush everything that parked behind the restore: fresh timeout
    // credit on the (healthy) spare. Ops queued on the restore's own
    // channel start after it, in order.
    for (auto& [k, p] : pending_) {
      if (k.first != pid || !p.parked) continue;
      p.parked = false;
      p.attempts = 0;
      p.timeout = cfg_.requestTimeout;
      transmit(p);
      armTimer(k, p, p.timeout, /*grace=*/false);
    }
    retire(it);
    return;
  }

  Completion c = std::move(op.completion);
  retire(it);
  if (c) c(std::move(*rep));
}

}  // namespace bg::cnk
