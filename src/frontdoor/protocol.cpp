#include "frontdoor/protocol.hpp"

#include "sim/bytes.hpp"

namespace bg::fd {

namespace {

/// Wrap a sealed body in the u32 length-prefix frame.
std::vector<std::byte> frame(sim::ByteWriter&& body) {
  sim::ByteWriter f;
  f.blob32(sim::seal(std::move(body)));
  return std::move(f).take();
}

/// Strip and validate the length prefix, then the checksum seal.
std::optional<std::span<const std::byte>> deframe(
    std::span<const std::byte> buf) {
  sim::ByteReader lp(buf);
  const std::uint32_t len = lp.u32();
  // Torn, or trailing junk.
  if (!lp.ok() || len != buf.size() - 4) return std::nullopt;
  return sim::unseal(buf.subspan(4));
}

bool validType(std::uint8_t t) {
  return t <= static_cast<std::uint8_t>(MsgType::kStatsResp);
}

}  // namespace

std::vector<std::byte> Request::encode() const {
  sim::ByteWriter w;
  w.u32(version);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(clientId);
  w.u64(seq);
  w.u8(retransmit ? 1 : 0);
  switch (type) {
    case MsgType::kSubmit:
      w.str32(jobName);
      w.u32(kernel);
      w.u32(nodes);
      w.u32(processes);
      w.u64(estCycles);
      w.u32(maxRetries);
      w.str32(exeName);
      break;
    case MsgType::kCancel:
    case MsgType::kQuery:
      w.u64(ticket);
      break;
    default:
      break;  // kStats has no payload
  }
  return frame(std::move(w));
}

std::optional<Request> Request::decode(std::span<const std::byte> buf) {
  const auto body = deframe(buf);
  if (!body) return std::nullopt;
  sim::ByteReader r(*body);
  Request q;
  q.version = r.u32();
  const std::uint8_t type = r.u8();
  q.clientId = r.u32();
  q.seq = r.u64();
  q.retransmit = r.u8() != 0;
  if (!r.ok() || !validType(type)) return std::nullopt;
  q.type = static_cast<MsgType>(type);
  // A foreign version's payload layout is unknowable; stop at the
  // header so the caller can still address a kBadVersion reply.
  if (q.version != kProtocolVersion) return q;
  switch (q.type) {
    case MsgType::kSubmit:
      q.jobName = r.str32();
      q.kernel = r.u32();
      q.nodes = r.u32();
      q.processes = r.u32();
      q.estCycles = r.u64();
      q.maxRetries = r.u32();
      q.exeName = r.str32();
      break;
    case MsgType::kCancel:
    case MsgType::kQuery:
      q.ticket = r.u64();
      break;
    default:
      break;
  }
  if (!r.ok()) return std::nullopt;
  return q;
}

std::vector<std::byte> Response::encode() const {
  sim::ByteWriter w;
  w.u32(version);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(clientId);
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(status));
  switch (type) {
    case MsgType::kSubmitResp:
      w.u64(ticket);
      w.u64(retryAfterCycles);
      break;
    case MsgType::kCancelResp:
      w.u64(ticket);
      break;
    case MsgType::kQueryResp:
      w.u64(ticket);
      w.u32(jobState);
      w.u32(jobId);
      w.i64(exitStatus);
      break;
    case MsgType::kStatsResp:
      w.u64(accepted);
      w.u64(rejected);
      w.u64(duplicates);
      w.u64(queueDepth);
      w.u64(batchedNow);
      break;
    default:
      break;
  }
  return frame(std::move(w));
}

std::optional<Response> Response::decode(std::span<const std::byte> buf) {
  const auto body = deframe(buf);
  if (!body) return std::nullopt;
  sim::ByteReader r(*body);
  Response p;
  p.version = r.u32();
  const std::uint8_t type = r.u8();
  p.clientId = r.u32();
  p.seq = r.u64();
  const std::uint8_t status = r.u8();
  if (!r.ok() || !validType(type) ||
      status > static_cast<std::uint8_t>(Status::kQuotaExceeded)) {
    return std::nullopt;
  }
  p.type = static_cast<MsgType>(type);
  p.status = static_cast<Status>(status);
  if (p.version != kProtocolVersion) return p;
  switch (p.type) {
    case MsgType::kSubmitResp:
      p.ticket = r.u64();
      p.retryAfterCycles = r.u64();
      break;
    case MsgType::kCancelResp:
      p.ticket = r.u64();
      break;
    case MsgType::kQueryResp:
      p.ticket = r.u64();
      p.jobState = r.u32();
      p.jobId = r.u32();
      p.exitStatus = r.i64();
      break;
    case MsgType::kStatsResp:
      p.accepted = r.u64();
      p.rejected = r.u64();
      p.duplicates = r.u64();
      p.queueDepth = r.u64();
      p.batchedNow = r.u64();
      break;
    default:
      break;
  }
  if (!r.ok()) return std::nullopt;
  return p;
}

}  // namespace bg::fd
