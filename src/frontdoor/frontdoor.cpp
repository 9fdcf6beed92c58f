#include "frontdoor/frontdoor.hpp"

#include <algorithm>
#include <utility>

#include "cnk/persist.hpp"
#include "sim/bytes.hpp"

namespace bg::fd {

namespace {
constexpr std::uint64_t kFdMagic = 0x42474644'494E464CULL;  // "BGFDINFL"
// v2: PendingSub carries the resolved account id; stats persist the
// quota-reject counter.
constexpr std::uint32_t kFdImageVersion = 2;
constexpr const char* kFdRegionName = "fd.inflight";
}  // namespace

FrontDoor::FrontDoor(sim::Engine& engine, svc::ServiceHost& host,
                     hw::CollectiveNet& net, FrontDoorConfig cfg)
    : engine_(engine), host_(host), net_(net), cfg_(cfg) {}

FrontDoor::~FrontDoor() {
  if (flushEvent_ != 0) engine_.cancel(flushEvent_);
}

void FrontDoor::attach() {
  if (attached_) return;
  attached_ = true;
  net_.setHandler(cfg_.netId,
                  [this](hw::CollPacket&& p) { onPacket(std::move(p)); });
  host_.setRestartHook([this] { onHostRestart(); });
}

void FrontDoor::mix(const char* what, std::uint64_t a, std::uint64_t b) {
  digest_.mixString(what);
  digest_.mix(a);
  digest_.mix(b);
}

void FrontDoor::onPacket(hw::CollPacket&& p) {
  if (p.channel != kChanFdRequest) return;
  if (!host_.alive()) {
    // The control plane is down; the client's watchdog will retry and
    // find the restarted instance.
    ++stats_.droppedWhileDown;
    return;
  }
  const auto q = Request::decode(p.payload);
  if (!q) {
    // Corruption is detected, never absorbed: stay silent and let the
    // client's retransmit machinery resend an intact frame.
    ++stats_.corrupt;
    return;
  }
  ++stats_.requests;
  if (q->version != kProtocolVersion) {
    ++stats_.badVersion;
    Response p2;
    p2.type = responseFor(q->type);
    p2.clientId = q->clientId;
    p2.seq = q->seq;
    p2.status = Status::kBadVersion;
    sendResponse(p2, p.srcNode);
    return;
  }

  // Exactly-once: submits and cancels are effectful, so duplicates are
  // recognized by (clientId, seq) before any state changes. Queries
  // and stats are idempotent and skip the cache.
  if (q->type == MsgType::kSubmit || q->type == MsgType::kCancel) {
    ClientCache& cc = clients_[q->clientId];
    const auto hit = cc.bySeq.find(q->seq);
    if (hit != cc.bySeq.end()) {
      if (q->retransmit) {
        // The client asked again; resend the recorded outcome.
        ++stats_.replays;
        Response p2;
        p2.type = hit->second.type;
        p2.clientId = q->clientId;
        p2.seq = q->seq;
        p2.status = hit->second.status;
        p2.ticket = hit->second.ticket;
        p2.retryAfterCycles = hit->second.retryAfterCycles;
        sendResponse(p2, p.srcNode);
      } else {
        // A link-level duplicate: the client never asked twice, so a
        // second response would only perturb the wire. Drop silently.
        ++stats_.dupSilent;
      }
      return;
    }
    if (cc.bySeq.size() >= cfg_.replayWindow && !cc.bySeq.empty() &&
        q->seq < cc.bySeq.begin()->first) {
      // Below the cache window: this seq was processed so long ago its
      // entry was evicted. Processing it again would break
      // exactly-once; dropping it is safe (the client has long moved
      // on — delayed wire stragglers are the only way here).
      ++stats_.staleDrops;
      return;
    }
  }

  switch (q->type) {
    case MsgType::kSubmit: handleSubmit(*q, p.srcNode); break;
    case MsgType::kCancel: handleCancel(*q, p.srcNode); break;
    case MsgType::kQuery: handleQuery(*q, p.srcNode); break;
    case MsgType::kStats: handleStats(*q, p.srcNode); break;
    default:
      // A response-typed frame on the request channel: malformed peer.
      ++stats_.badRequests;
      break;
  }
}

void FrontDoor::handleSubmit(const Request& q, int replyTo) {
  Response p;
  p.type = MsgType::kSubmitResp;
  p.clientId = q.clientId;
  p.seq = q.seq;

  // Admission control: bound the work the control plane will hold.
  const std::size_t depth = batch_.size() + node().queueDepth();
  if (depth >= cfg_.maxQueueDepth) {
    ++stats_.rejected;
    p.status = Status::kServerBusy;
    p.retryAfterCycles = cfg_.retryAfterCycles;
    mix("reject", q.clientId, q.seq);
    // The rejection is a control-system event worth a RAS record: a
    // sustained storm of these is how an operator sees overload.
    kernel::RasEvent e;
    e.cycle = engine_.now();
    e.code = kernel::RasEvent::Code::kClientRejected;
    e.severity = kernel::RasEvent::Severity::kWarn;
    e.pid = q.clientId;
    e.detail = q.seq;
    node().ras().reportLocal(e);
    cacheAndSend(q, p, replyTo);
    persistIfOn();
    return;
  }

  // Validate before issuing a ticket: the executable must resolve in
  // the shared-filesystem catalog and the shape must be sane.
  if (q.nodes < 1 || q.processes < 1 || q.kernel > 1 ||
      host_.store().image(q.exeName) == nullptr) {
    ++stats_.badRequests;
    p.status = Status::kBadRequest;
    cacheAndSend(q, p, replyTo);
    return;
  }

  // Per-account admission (multi-tenant plane): a maxQueued quota
  // bounce is a distinct, non-retryable status — the account is full,
  // not the server. Jobs accepted but not yet flushed count against
  // the quota too, so a burst can't slip past between flushes.
  const svc::AccountId account =
      cfg_.accountOf ? cfg_.accountOf(q.clientId) : 0;
  if (account != 0) {
    std::uint32_t batched = 0;
    for (std::uint64_t t : batch_) {
      if (pending_.at(t).account == account) ++batched;
    }
    if (!node().accounting().admitQueued(account, batched)) {
      ++stats_.quotaRejected;
      node().accounting().onQuotaReject(account);
      p.status = Status::kQuotaExceeded;
      mix("quota", q.clientId, q.seq);
      kernel::RasEvent e;
      e.cycle = engine_.now();
      e.code = kernel::RasEvent::Code::kQuotaRejected;
      e.severity = kernel::RasEvent::Severity::kWarn;
      e.pid = q.clientId;
      e.detail = account;
      node().ras().reportLocal(e);
      cacheAndSend(q, p, replyTo);
      persistIfOn();
      return;
    }
  }

  const std::uint64_t ticket = nextTicket_++;
  PendingSub ps;
  ps.clientId = q.clientId;
  ps.seq = q.seq;
  ps.jobName = q.jobName;
  ps.kernel = q.kernel;
  ps.nodes = q.nodes;
  ps.processes = q.processes;
  ps.estCycles = q.estCycles;
  ps.maxRetries = q.maxRetries;
  ps.exeName = q.exeName;
  ps.account = account;
  pending_.emplace(ticket, std::move(ps));
  batch_.push_back(ticket);
  ++stats_.accepted;
  stats_.maxPendingSeen = std::max<std::uint64_t>(stats_.maxPendingSeen,
                                                  pending_.size());
  stats_.maxBatchSeen = std::max<std::uint64_t>(stats_.maxBatchSeen,
                                                batch_.size());
  mix("accept", ticket, q.clientId);
  digest_.mix(q.seq);

  p.status = Status::kOk;
  p.ticket = ticket;
  cacheAndSend(q, p, replyTo);

  if (batch_.size() >= cfg_.maxBatch) {
    if (flushEvent_ != 0) {
      engine_.cancel(flushEvent_);
      flushEvent_ = 0;
    }
    flush();
  } else {
    armFlush();
    persistIfOn();
  }
}

void FrontDoor::handleCancel(const Request& q, int replyTo) {
  Response p;
  p.type = MsgType::kCancelResp;
  p.clientId = q.clientId;
  p.seq = q.seq;
  p.ticket = q.ticket;

  const auto it = pending_.find(q.ticket);
  if (it == pending_.end()) {
    ++stats_.unknownTickets;
    p.status = Status::kUnknownTicket;
    cacheAndSend(q, p, replyTo);
    return;
  }
  PendingSub& ps = it->second;
  if (ps.state == SubState::kBatched) {
    // Never reached the scheduler: unwind it right here.
    batch_.erase(std::remove(batch_.begin(), batch_.end(), q.ticket),
                 batch_.end());
    pending_.erase(it);
    ++stats_.cancelsBatched;
    mix("cancel_batched", q.ticket, q.clientId);
    p.status = Status::kOk;
    cacheAndSend(q, p, replyTo);
    persistIfOn();
    return;
  }
  // Already submitted: only a still-queued job can be pulled back.
  if (node().cancelQueued(ps.jobId)) {
    pending_.erase(it);
    ++stats_.cancelsQueued;
    mix("cancel_queued", q.ticket, q.clientId);
    p.status = Status::kOk;
  } else {
    ++stats_.cancelsTooLate;
    p.status = Status::kTooLate;
  }
  cacheAndSend(q, p, replyTo);
  persistIfOn();
}

void FrontDoor::handleQuery(const Request& q, int replyTo) {
  ++stats_.queries;
  Response p;
  p.type = MsgType::kQueryResp;
  p.clientId = q.clientId;
  p.seq = q.seq;
  p.ticket = q.ticket;

  const auto it = pending_.find(q.ticket);
  if (it == pending_.end()) {
    p.status = Status::kUnknownTicket;
  } else if (it->second.state == SubState::kBatched) {
    p.status = Status::kOk;
    p.jobState = static_cast<std::uint32_t>(svc::JobState::kQueued);
  } else {
    const svc::JobRecord* jr = node().job(it->second.jobId);
    p.status = Status::kOk;
    p.jobId = it->second.jobId;
    if (jr != nullptr) {
      p.jobState = static_cast<std::uint32_t>(jr->state);
      p.exitStatus = jr->exitStatus;
    }
  }
  sendResponse(p, replyTo);  // idempotent: not cached
}

void FrontDoor::handleStats(const Request& q, int replyTo) {
  ++stats_.statsRequests;
  Response p;
  p.type = MsgType::kStatsResp;
  p.clientId = q.clientId;
  p.seq = q.seq;
  p.status = Status::kOk;
  p.accepted = stats_.accepted;
  p.rejected = stats_.rejected;
  p.duplicates = stats_.dupSilent + stats_.replays;
  p.queueDepth = batch_.size() + node().queueDepth();
  p.batchedNow = batch_.size();
  sendResponse(p, replyTo);  // idempotent: not cached
}

void FrontDoor::sendResponse(const Response& p, int dstNode) {
  hw::CollPacket pkt;
  pkt.srcNode = cfg_.netId;
  pkt.dstNode = dstNode;
  pkt.channel = kChanFdResponse;
  pkt.payload = p.encode();
  net_.send(std::move(pkt));
}

void FrontDoor::cacheAndSend(const Request& q, Response p, int dstNode) {
  ClientCache& cc = clients_[q.clientId];
  CachedResp cr;
  cr.type = p.type;
  cr.status = p.status;
  cr.ticket = p.ticket;
  cr.retryAfterCycles = p.retryAfterCycles;
  cc.bySeq[q.seq] = cr;
  while (cc.bySeq.size() > cfg_.replayWindow) {
    cc.bySeq.erase(cc.bySeq.begin());  // oldest seq falls off the window
  }
  sendResponse(p, dstNode);
}

void FrontDoor::armFlush() {
  if (flushEvent_ != 0 || batch_.empty()) return;
  flushEvent_ = engine_.schedule(cfg_.batchIntervalCycles,
                                 [this] { flush(); });
}

void FrontDoor::flush() {
  flushEvent_ = 0;
  if (batch_.empty()) return;
  if (!host_.alive()) {
    // Mid-outage timer: hold the batch; the restart hook flushes it.
    armFlush();
    return;
  }
  std::vector<svc::JobDesc> descs;
  descs.reserve(batch_.size());
  for (std::uint64_t t : batch_) {
    const PendingSub& ps = pending_.at(t);
    svc::JobDesc jd;
    jd.name = ps.jobName;
    jd.kernel = ps.kernel == 1 ? rt::KernelKind::kFwk : rt::KernelKind::kCnk;
    jd.nodes = static_cast<int>(ps.nodes);
    jd.processes = static_cast<int>(ps.processes);
    jd.exe = host_.store().image(ps.exeName);
    jd.estCycles = ps.estCycles;
    jd.maxRetries = static_cast<int>(ps.maxRetries);
    jd.account = ps.account;
    descs.push_back(std::move(jd));
  }
  const std::vector<svc::JobId> ids = host_.submitBatch(std::move(descs));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    PendingSub& ps = pending_.at(batch_[i]);
    ps.state = SubState::kSubmitted;
    ps.jobId = ids[i];
  }
  ++stats_.flushes;
  stats_.flushedJobs += ids.size();
  mix("flush", ids.size(), batch_.size());
  batch_.clear();
  persistIfOn();
}

std::vector<std::pair<std::uint64_t, std::uint32_t>>
FrontDoor::ticketJobIds() const {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  out.reserve(pending_.size());
  for (const auto& [t, ps] : pending_) out.emplace_back(t, ps.jobId);
  return out;
}

// --- persistence --------------------------------------------------------

void FrontDoor::persistIfOn() {
  if (cfg_.persist) saveImage();
}

bool FrontDoor::saveImage() {
  sim::ByteWriter w;
  w.u32(kFdImageVersion);
  w.u64(digest_.digest());
  w.u64(nextTicket_);
  w.u64(stats_.accepted);
  w.u64(stats_.rejected);
  w.u64(stats_.quotaRejected);
  w.u64(stats_.flushes);
  w.u64(stats_.flushedJobs);
  w.u64(pending_.size());
  for (const auto& [t, ps] : pending_) {
    w.u64(t);
    w.u32(ps.clientId);
    w.u64(ps.seq);
    w.u8(static_cast<std::uint8_t>(ps.state));
    w.u32(ps.jobId);
    w.str(ps.jobName);
    w.u32(ps.kernel);
    w.u32(ps.nodes);
    w.u32(ps.processes);
    w.u64(ps.estCycles);
    w.u32(ps.maxRetries);
    w.str(ps.exeName);
    w.u32(ps.account);
  }
  w.u64(batch_.size());
  for (std::uint64_t t : batch_) w.u64(t);
  w.u64(clients_.size());
  for (const auto& [cid, cc] : clients_) {
    w.u32(cid);
    w.u64(cc.bySeq.size());
    for (const auto& [seq, cr] : cc.bySeq) {
      w.u64(seq);
      w.u8(static_cast<std::uint8_t>(cr.type));
      w.u8(static_cast<std::uint8_t>(cr.status));
      w.u64(cr.ticket);
      w.u64(cr.retryAfterCycles);
    }
  }
  const std::vector<std::byte> image = std::move(w).take();

  svc::CheckpointStore& store = host_.store();
  const auto r = store.registry().openOrCreate(kFdRegionName,
                                               cfg_.persistRegionBytes, 0);
  return r && cnk::writeSealed(store.mem(), r->pbase, r->size, kFdMagic,
                               image);
}

bool FrontDoor::loadImage() {
  svc::CheckpointStore& store = host_.store();
  const cnk::PersistRegion* r = store.registry().find(kFdRegionName);
  if (r == nullptr) return false;
  const auto image =
      cnk::readSealed(store.mem(), r->pbase, r->size, kFdMagic);
  if (!image) return false;

  sim::ByteReader rd(*image);
  if (rd.u32() != kFdImageVersion) return false;
  const std::uint64_t digest = rd.u64();
  const std::uint64_t nextTicket = rd.u64();
  const std::uint64_t accepted = rd.u64();
  const std::uint64_t rejected = rd.u64();
  const std::uint64_t quotaRejected = rd.u64();
  const std::uint64_t flushes = rd.u64();
  const std::uint64_t flushedJobs = rd.u64();

  std::map<std::uint64_t, PendingSub> pending;
  const std::uint64_t np = rd.u64();
  for (std::uint64_t i = 0; i < np && rd.ok(); ++i) {
    const std::uint64_t t = rd.u64();
    PendingSub ps;
    ps.clientId = rd.u32();
    ps.seq = rd.u64();
    ps.state = static_cast<SubState>(rd.u8());
    ps.jobId = rd.u32();
    ps.jobName = rd.str();
    ps.kernel = rd.u32();
    ps.nodes = rd.u32();
    ps.processes = rd.u32();
    ps.estCycles = rd.u64();
    ps.maxRetries = rd.u32();
    ps.exeName = rd.str();
    ps.account = rd.u32();
    pending.emplace(t, std::move(ps));
  }
  std::vector<std::uint64_t> batch;
  const std::uint64_t nb = rd.u64();
  for (std::uint64_t i = 0; i < nb && rd.ok(); ++i) batch.push_back(rd.u64());
  std::map<std::uint32_t, ClientCache> clients;
  const std::uint64_t nc = rd.u64();
  for (std::uint64_t i = 0; i < nc && rd.ok(); ++i) {
    const std::uint32_t cid = rd.u32();
    ClientCache cc;
    const std::uint64_t ne = rd.u64();
    for (std::uint64_t e = 0; e < ne && rd.ok(); ++e) {
      const std::uint64_t seq = rd.u64();
      CachedResp cr;
      cr.type = static_cast<MsgType>(rd.u8());
      cr.status = static_cast<Status>(rd.u8());
      cr.ticket = rd.u64();
      cr.retryAfterCycles = rd.u64();
      cc.bySeq.emplace(seq, cr);
    }
    clients.emplace(cid, std::move(cc));
  }
  if (!rd.ok()) return false;

  digest_.restore(digest);
  nextTicket_ = nextTicket;
  stats_.accepted = accepted;
  stats_.rejected = rejected;
  stats_.quotaRejected = quotaRejected;
  stats_.flushes = flushes;
  stats_.flushedJobs = flushedJobs;
  pending_ = std::move(pending);
  batch_ = std::move(batch);
  clients_ = std::move(clients);
  return true;
}

void FrontDoor::onHostRestart() {
  ++stats_.restarts;
  if (flushEvent_ != 0) {
    engine_.cancel(flushEvent_);
    flushEvent_ = 0;
  }
  if (cfg_.persist) {
    // The persisted image is authoritative across a crash: every
    // acknowledged submit was written through before its response left
    // the building. (A missing/invalid image means nothing was ever
    // accepted — keep the empty in-memory state.)
    loadImage();
  }

  // Reconcile submitted tickets against the recovered job table: a
  // stale svc checkpoint (or a cold start) may have swallowed jobs we
  // already acknowledged. Those go back into the batch and are
  // resubmitted — the ticket the client holds stays valid.
  std::vector<std::uint64_t> lost;
  for (auto& [t, ps] : pending_) {
    if (ps.state != SubState::kSubmitted) continue;
    const svc::JobRecord* jr = node().job(ps.jobId);
    if (jr == nullptr || jr->desc.name != ps.jobName) {
      ps.state = SubState::kBatched;
      ps.jobId = 0;
      lost.push_back(t);
    }
  }
  for (std::uint64_t t : lost) batch_.push_back(t);
  stats_.resubmitted += lost.size();
  mix("restart", stats_.restarts, lost.size());

  kernel::RasEvent e;
  e.cycle = engine_.now();
  e.code = kernel::RasEvent::Code::kFrontDoorRestart;
  e.severity = kernel::RasEvent::Severity::kInfo;
  e.detail = lost.size();
  node().ras().reportLocal(e);

  if (!batch_.empty()) {
    flush();  // host is alive inside the restart hook
  } else {
    persistIfOn();
  }
}

}  // namespace bg::fd
