#include "frontdoor/client.hpp"

#include <algorithm>
#include <utility>

namespace bg::fd {

FdClient::FdClient(sim::Engine& engine, hw::CollectiveNet& net,
                   int serverNetId, int netId, std::uint32_t clientId,
                   FdClientConfig cfg)
    : engine_(engine),
      net_(net),
      serverNetId_(serverNetId),
      netId_(netId),
      clientId_(clientId),
      cfg_(cfg) {}

FdClient::~FdClient() {
  // The engine outlives clients in every harness; armed watchdogs must
  // not fire into a destroyed instance.
  for (auto& [seq, op] : ops_) {
    if (op.timer != 0) engine_.cancel(op.timer);
  }
}

void FdClient::attach() {
  if (attached_) return;
  attached_ = true;
  net_.setHandler(netId_,
                  [this](hw::CollPacket&& p) { onPacket(std::move(p)); });
}

void FdClient::scheduleSubmitAt(sim::Cycle at, SubmitOp op) {
  ++outstanding_;
  engine_.scheduleAt(at, [this, op = std::move(op)] {
    startSubmit(op, engine_.now(), 0);
  });
}

void FdClient::startSubmit(const SubmitOp& s, sim::Cycle firstSend,
                           int busyRetries) {
  Op op;
  op.req.type = MsgType::kSubmit;
  op.req.clientId = clientId_;
  op.req.seq = nextSeq_++;
  op.req.jobName = s.jobName;
  op.req.kernel = s.kernel;
  op.req.nodes = s.nodes;
  op.req.processes = s.processes;
  op.req.estCycles = s.estCycles;
  op.req.maxRetries = s.maxRetries;
  op.req.exeName = s.exeName;
  op.firstSend = firstSend;
  op.busyRetries = busyRetries;
  op.forceDup = s.forceDup;
  op.followUp = s.followUp;
  op.followUpDelay = s.followUpDelay;
  if (busyRetries == 0) ++counters_.submitsSent;
  const std::uint64_t seq = op.req.seq;
  auto [it, ok] = ops_.emplace(seq, std::move(op));
  (void)ok;
  transmit(it->second);
}

void FdClient::startFollowUp(MsgType type, std::uint64_t ticket) {
  Op op;
  op.req.type = type;
  op.req.clientId = clientId_;
  op.req.seq = nextSeq_++;
  op.req.ticket = ticket;
  op.firstSend = engine_.now();
  const std::uint64_t seq = op.req.seq;
  auto [it, ok] = ops_.emplace(seq, std::move(op));
  (void)ok;
  transmit(it->second);
}

void FdClient::transmit(Op& op) {
  std::vector<std::byte> bytes = op.req.encode();
  if (op.forceDup && op.attempts == 0) {
    // Injected wire duplicate: byte-identical, retransmit flag clear,
    // sent from the ghost uplink so the injection never serializes
    // ahead of real traffic (see kDupInjectSrcOffset).
    hw::CollPacket dup;
    dup.srcNode = netId_ + kDupInjectSrcOffset;
    dup.dstNode = serverNetId_;
    dup.channel = kChanFdRequest;
    dup.payload = bytes;
    net_.send(std::move(dup));
  }
  hw::CollPacket pkt;
  pkt.srcNode = netId_;
  pkt.dstNode = serverNetId_;
  pkt.channel = kChanFdRequest;
  pkt.payload = std::move(bytes);
  net_.send(std::move(pkt));
  ++op.attempts;
  armTimer(op);
}

void FdClient::armTimer(Op& op) {
  // Exponential backoff, capped so a long outage doesn't push the
  // retry horizon past any plausible restart window.
  const int shift = std::min(op.attempts - 1, 4);
  const sim::Cycle wait = cfg_.responseTimeoutCycles << shift;
  const std::uint64_t seq = op.req.seq;
  op.timer = engine_.schedule(wait, [this, seq] { onTimeout(seq); });
}

void FdClient::onTimeout(std::uint64_t seq) {
  const auto it = ops_.find(seq);
  if (it == ops_.end()) return;
  Op& op = it->second;
  op.timer = 0;
  if (op.attempts >= cfg_.maxAttempts) {
    ++counters_.abandoned;
    finish(seq, false);
    return;
  }
  ++counters_.retransmits;
  op.req.retransmit = true;  // tell the server to replay, not reprocess
  transmit(op);
}

void FdClient::finish(std::uint64_t seq, bool transferred) {
  const auto it = ops_.find(seq);
  if (it == ops_.end()) return;
  if (it->second.timer != 0) engine_.cancel(it->second.timer);
  ops_.erase(it);
  if (!transferred) --outstanding_;
}

void FdClient::onPacket(hw::CollPacket&& p) {
  if (p.channel != kChanFdResponse) return;
  const auto resp = Response::decode(p.payload);
  if (!resp) {
    ++counters_.badResponses;
    return;
  }
  const auto it = ops_.find(resp->seq);
  if (it == ops_.end() || resp->clientId != clientId_) {
    // The op already completed (a replay raced a delayed original).
    ++counters_.dupResponses;
    return;
  }
  Op& op = it->second;
  const std::uint64_t seq = resp->seq;

  switch (resp->type) {
    case MsgType::kSubmitResp:
      switch (resp->status) {
        case Status::kOk: {
          ++counters_.acked;
          latencies_.push_back(engine_.now() - op.firstSend);
          tickets_.push_back(resp->ticket);
          const FollowUp fu = op.followUp;
          const sim::Cycle delay = op.followUpDelay;
          const std::uint64_t ticket = resp->ticket;
          if (fu == FollowUp::kNone) {
            finish(seq, false);
          } else {
            // The outstanding token rides the follow-up.
            finish(seq, true);
            const MsgType t =
                fu == FollowUp::kCancel ? MsgType::kCancel : MsgType::kQuery;
            engine_.schedule(delay,
                             [this, t, ticket] { startFollowUp(t, ticket); });
          }
          break;
        }
        case Status::kServerBusy: {
          if (op.busyRetries >= cfg_.maxBusyRetries) {
            ++counters_.busyAbandoned;
            finish(seq, false);
            break;
          }
          ++counters_.busyRetries;
          // Honor the server's hint, backing off linearly with each
          // rejection; the resubmit is a NEW request (fresh seq).
          const sim::Cycle hint = std::max<sim::Cycle>(
              resp->retryAfterCycles, 1);
          const sim::Cycle wait =
              hint * static_cast<sim::Cycle>(op.busyRetries + 1);
          SubmitOp s;
          s.jobName = op.req.jobName;
          s.kernel = op.req.kernel;
          s.nodes = op.req.nodes;
          s.processes = op.req.processes;
          s.estCycles = op.req.estCycles;
          s.maxRetries = op.req.maxRetries;
          s.exeName = op.req.exeName;
          s.followUp = op.followUp;
          s.followUpDelay = op.followUpDelay;
          const sim::Cycle firstSend = op.firstSend;
          const int retries = op.busyRetries + 1;
          finish(seq, true);  // token rides the resubmit
          engine_.schedule(wait, [this, s = std::move(s), firstSend,
                                  retries] {
            startSubmit(s, firstSend, retries);
          });
          break;
        }
        case Status::kQuotaExceeded:
          // The account is over quota, not the server over load: a
          // resubmit would bounce identically until other jobs drain,
          // so the op terminates here (no busy-style retry loop).
          ++counters_.quotaRejected;
          finish(seq, false);
          break;
        default:
          ++counters_.rejectedOther;
          finish(seq, false);
          break;
      }
      break;
    case MsgType::kCancelResp:
      if (resp->status == Status::kOk) {
        ++counters_.cancelsAcked;
      } else if (resp->status == Status::kTooLate) {
        ++counters_.cancelsTooLate;
      } else {
        ++counters_.rejectedOther;
      }
      finish(seq, false);
      break;
    case MsgType::kQueryResp:
      ++counters_.queriesDone;
      finish(seq, false);
      break;
    default:
      ++counters_.badResponses;
      break;
  }
}

}  // namespace bg::fd
