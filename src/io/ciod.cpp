#include "io/ciod.hpp"

#include <algorithm>

#include "kernel/syscalls.hpp"

namespace bg::io {

Ciod::Ciod(hw::Node& ioNode, Vfs& vfs, sim::Cycle perOpOverhead)
    : ioNode_(ioNode),
      vfs_(vfs),
      perOpOverhead_(perOpOverhead),
      alive_(std::make_shared<bool>(true)) {
  ioNode_.collective()->setHandler(
      ioNode_.id(), [this](hw::CollPacket&& pkt) { onPacket(std::move(pkt)); });
}

Ciod::~Ciod() {
  if (!crashed_) crash();
}

void Ciod::crash() {
  if (crashed_) return;
  crashed_ = true;
  ioNode_.collective()->setHandler(ioNode_.id(), nullptr);
  alive_.reset();  // in-flight scheduled replies dissolve
}

IoProxy& Ciod::proxyFor(std::int32_t cnNode, std::uint32_t pid) {
  auto key = std::make_pair(cnNode, pid);
  auto it = proxies_.find(key);
  if (it == proxies_.end()) {
    it = proxies_
             .emplace(key, std::make_unique<IoProxy>(vfs_, ioNode_.engine()))
             .first;
  }
  return *it->second;
}

std::size_t Ciod::proxyThreadCount() const {
  std::size_t n = 0;
  for (const auto& [k, p] : proxies_) n += p->proxyThreads();
  return n;
}

void Ciod::onPacket(hw::CollPacket&& pkt) {
  if (crashed_ || pkt.channel != kChanFshipRequest) return;
  auto req = FsRequest::decode(pkt.payload);
  if (!req) {
    // Checksum or framing failure: drop silently — the client's
    // watchdog owns recovery.
    ++stats_.errors;
    ++stats_.badChecksums;
    return;
  }

  // Replay suppression per (node, pid, tid): the client sends at most
  // one op at a time per channel, so one cached reply per channel is
  // an exactly-once filter for retransmitted non-idempotent ops.
  const ChanKey chan{{req->srcNode, req->pid}, req->tid};
  auto rit = replay_.find(chan);
  if (rit != replay_.end()) {
    if (req->seq == rit->second.seq) {
      ++stats_.replays;
      stats_.bytesOut += rit->second.encodedReply.size();
      // Resend from cache without re-executing; charge only the
      // daemon handoff, not a filesystem op.
      sendReplyAt(ioNode_.engine().now() + perOpOverhead_,
                  rit->second.encodedReply, req->srcNode);
      return;
    }
    if (req->seq < rit->second.seq) {
      ++stats_.staleDrops;
      return;
    }
  }

  ++stats_.requests;
  stats_.bytesIn += pkt.payload.size();
  serve(*req);
}

std::int64_t Ciod::serveRestore(const FsRequest& req) {
  auto snap = ShadowSnapshot::decode(req.payload);
  if (!snap) return -kernel::kEINVAL;
  // Rebuild the ioproxy from the compute node's shadow: a fresh
  // VfsClient whose fd numbers, offsets, dup groups, cwd and next-fd
  // counter match the client's last-acknowledged view. Ops the old
  // CIOD acked after that view are rolled back from this proxy's
  // perspective — the client retransmits them once the restore acks.
  auto key = std::make_pair(req.srcNode, req.pid);
  proxies_[key] = std::make_unique<IoProxy>(vfs_, ioNode_.engine());
  VfsClient& c = proxies_[key]->client();
  std::int64_t firstErr = 0;
  for (const auto& f : snap->fds) {
    const std::int64_t rc =
        c.restoreFd(f.fd, f.path, f.flags, f.offset, f.shareWithFd);
    if (rc < 0 && firstErr == 0) firstErr = rc;
  }
  c.setCwd(snap->cwd);
  c.setNextFd(snap->nextFd);
  ++stats_.restores;
  return firstErr;
}

void Ciod::sendReplyAt(sim::Cycle when, std::vector<std::byte> bytes,
                       int dst) {
  const int self = ioNode_.id();
  hw::CollectiveNet* net = ioNode_.collective();
  std::weak_ptr<bool> alive = alive_;
  ioNode_.engine().scheduleAt(
      when, [net, self, dst, bytes = std::move(bytes), alive]() mutable {
        if (alive.lock() == nullptr) return;  // daemon died under us
        hw::CollPacket out;
        out.srcNode = self;
        out.dstNode = dst;
        out.channel = kChanFshipReply;
        out.payload = std::move(bytes);
        net->send(std::move(out));
      });
}

void Ciod::serve(const FsRequest& req) {
  // The ioproxy performs the actual Linux system call; result codes
  // and filesystem nuances come straight from the VFS (paper §IV-A:
  // "the calls produce the same result codes, network filesystem
  // nuances, etc."). kRead/kWrite carry the offset the client's
  // shadow reserved, so a retransmit hits the same file range. A
  // kRename is one op == one replay-cache entry, so a retransmit after
  // the commit landed replays the cached reply instead of failing on
  // the now-missing old name.
  FsReply rep;
  if (req.op == FsOp::kRestoreState) {
    rep.result = serveRestore(req);
  } else {
    rep = runFsOp(proxyFor(req.srcNode, req.pid).client(), req);
  }
  rep.seq = req.seq;
  rep.srcNode = req.srcNode;
  rep.pid = req.pid;
  rep.tid = req.tid;
  if (rep.result < 0) ++stats_.errors;

  // Serialize per proxy thread: the dedicated proxy thread for this
  // compute thread finishes its previous op first.
  sim::Engine& eng = ioNode_.engine();
  IoProxy& proxy = proxyFor(req.srcNode, req.pid);
  sim::Cycle& busy = proxy.threadBusyUntil(req.tid);
  const sim::Cycle start = std::max(eng.now(), busy);
  const sim::Cycle done = start + perOpOverhead_ + proxy.client().lastLatency();
  busy = done;

  auto bytes = rep.encode();
  stats_.bytesOut += bytes.size();
  replay_[ChanKey{{req.srcNode, req.pid}, req.tid}] =
      ReplayEntry{req.seq, bytes};
  sendReplyAt(done, std::move(bytes), rep.srcNode);
}

}  // namespace bg::io
