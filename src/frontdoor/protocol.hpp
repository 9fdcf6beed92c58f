// Versioned client-facing RPC protocol for the service node's front
// door (src/frontdoor).
//
// On a real Blue Gene, users never talk to CNK: submission goes to the
// control system through a versioned message protocol (mpirun ->
// service node), the same shape SLURM and LoadLeveler use — a message
// type enum, a protocol version field, and per-client sequence numbers
// so the server can recognize retries. This file pins that wire
// format: every message is a u32 length prefix followed by a
// checksum-sealed body (msg::wire), so link corruption surfaces as a
// decode failure and the client's retransmit machinery — not silent
// garbage — handles it.
//
// Layout (all little-endian, strings u32-length-prefixed):
//   frame   := u32 bodyLen, body[bodyLen]
//   body    := header, payload, u64 hashBytes(header+payload)
//   header  := u32 version, u8 type, u32 clientId, u64 seq,
//              u8 retransmit
//   payload := per-type fields (see encode())
//
// The header is parsed before the version is judged, so a server can
// answer a future-versioned request with kBadVersion instead of
// dropping it on the floor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace bg::fd {

inline constexpr std::uint32_t kProtocolVersion = 1;

/// Collective-net demux channels (fship owns 1/2, coredumps 3).
inline constexpr std::uint32_t kChanFdRequest = 11;
inline constexpr std::uint32_t kChanFdResponse = 12;

enum class MsgType : std::uint8_t {
  kSubmit,
  kCancel,
  kQuery,
  kStats,
  kSubmitResp,
  kCancelResp,
  kQueryResp,
  kStatsResp,
};

constexpr MsgType responseFor(MsgType t) {
  switch (t) {
    case MsgType::kSubmit: return MsgType::kSubmitResp;
    case MsgType::kCancel: return MsgType::kCancelResp;
    case MsgType::kQuery: return MsgType::kQueryResp;
    case MsgType::kStats: return MsgType::kStatsResp;
    default: return t;
  }
}

constexpr const char* msgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kSubmit: return "submit";
    case MsgType::kCancel: return "cancel";
    case MsgType::kQuery: return "query";
    case MsgType::kStats: return "stats";
    case MsgType::kSubmitResp: return "submit_resp";
    case MsgType::kCancelResp: return "cancel_resp";
    case MsgType::kQueryResp: return "query_resp";
    case MsgType::kStatsResp: return "stats_resp";
  }
  return "?";
}

enum class Status : std::uint8_t {
  kOk,
  kServerBusy,     // admission control bounced the submit; retry later
  kBadVersion,     // speaker is from another protocol era
  kBadRequest,     // malformed/unresolvable submit (unknown exe, ...)
  kUnknownTicket,  // cancel/query for a ticket the server never issued
  kTooLate,        // cancel arrived after the job left the queue
  kQuotaExceeded,  // account hit a fair-share limit; not a retry hint
};

constexpr const char* statusName(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kServerBusy: return "server_busy";
    case Status::kBadVersion: return "bad_version";
    case Status::kBadRequest: return "bad_request";
    case Status::kUnknownTicket: return "unknown_ticket";
    case Status::kTooLate: return "too_late";
    case Status::kQuotaExceeded: return "quota_exceeded";
  }
  return "?";
}

/// Client -> server. Submit carries the job description (executable by
/// catalog name, never by content); cancel/query carry the ticket the
/// matching submit response returned.
struct Request {
  std::uint32_t version = kProtocolVersion;
  MsgType type = MsgType::kSubmit;
  std::uint32_t clientId = 0;
  std::uint64_t seq = 0;
  /// Set on watchdog retransmits: tells the server a cached response
  /// should be resent. A clear flag on a duplicate seq means the wire
  /// duplicated the packet, and the server stays silent.
  bool retransmit = false;

  // kSubmit payload.
  std::string jobName;
  std::uint32_t kernel = 0;  // 0 = CNK, 1 = FWK personality
  std::uint32_t nodes = 1;
  std::uint32_t processes = 1;
  std::uint64_t estCycles = 1'000'000;
  std::uint32_t maxRetries = 1;
  std::string exeName;

  // kCancel / kQuery payload.
  std::uint64_t ticket = 0;

  std::vector<std::byte> encode() const;
  /// nullopt on a short frame, checksum mismatch, or a truncated
  /// payload. A version mismatch parses the header only (payload
  /// fields stay defaulted) so the server can answer kBadVersion.
  static std::optional<Request> decode(std::span<const std::byte> frame);
};

/// Server -> client. seq echoes the request so the client can match
/// responses to in-flight operations.
struct Response {
  std::uint32_t version = kProtocolVersion;
  MsgType type = MsgType::kSubmitResp;
  std::uint32_t clientId = 0;
  std::uint64_t seq = 0;
  Status status = Status::kOk;

  // kSubmitResp / kCancelResp / kQueryResp.
  std::uint64_t ticket = 0;
  /// kServerBusy backpressure hint: don't resubmit sooner than this.
  std::uint64_t retryAfterCycles = 0;

  // kQueryResp.
  std::uint32_t jobState = 0;  // svc::JobState as u32; batched = queued
  std::uint32_t jobId = 0;     // 0 while still batched on the front door
  std::int64_t exitStatus = 0;

  // kStatsResp.
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t queueDepth = 0;  // svc queue + front-door batch
  std::uint64_t batchedNow = 0;

  std::vector<std::byte> encode() const;
  static std::optional<Response> decode(std::span<const std::byte> frame);
};

}  // namespace bg::fd
