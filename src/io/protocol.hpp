// The CNK <-> CIOD function-shipping wire protocol (paper Fig 2).
//
// Requests and replies are really marshalled to byte vectors and
// carried over the collective-network model; nothing is passed by
// host pointer. A write() request carries the user's buffer bytes, a
// read() reply carries the data that lands back in user memory.
//
// Reliability layer: every message ends in a sim::hashBytes checksum
// of the preceding bytes, so link corruption is *detected* (decode
// returns nullopt) rather than silently absorbed; `seq` is monotone per
// (pid, tid) channel, which lets CIOD suppress duplicate requests via
// its replay cache and lets CNK discard stale or duplicated replies.
// kRead/kWrite carry an explicit file offset (a2) reserved by the
// client against its shadow fd table, making retransmits idempotent.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace bg::io {

enum class FsOp : std::uint32_t {
  kOpen,
  kClose,
  kRead,
  kWrite,
  kLseek,
  kStat,
  kUnlink,
  kMkdir,
  kChdir,
  kGetcwd,
  kDup,
  // Failover: bulk-restore a process's ioproxy state (fd table, cwd)
  // on a replacement I/O node from the CNK-side shadow. Sent on the
  // reserved (pid, tid=0) control channel.
  kRestoreState,
  // Atomic rename (two-phase checkpoint commit): `path` is the old
  // name, the new name rides the payload. A single op, so the replay
  // cache makes a retransmitted rename exactly-once.
  kRename,
};

/// Collective-network channel tags.
inline constexpr std::uint32_t kChanFshipRequest = 1;
inline constexpr std::uint32_t kChanFshipReply = 2;

struct FsRequest {
  std::uint64_t seq = 0;
  std::int32_t srcNode = 0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  FsOp op = FsOp::kOpen;
  std::uint64_t a0 = 0;  // fd / flags / whence ...
  std::uint64_t a1 = 0;  // count / offset ...
  std::uint64_t a2 = 0;
  std::string path;                // for path-based ops
  std::vector<std::byte> payload;  // write data

  std::vector<std::byte> encode() const;
  static std::optional<FsRequest> decode(std::span<const std::byte> buf);
};

struct FsReply {
  std::uint64_t seq = 0;
  std::int32_t srcNode = 0;  // compute node the reply returns to
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::int64_t result = 0;
  std::vector<std::byte> payload;  // read data / getcwd string

  std::vector<std::byte> encode() const;
  static std::optional<FsReply> decode(std::span<const std::byte> buf);
};

/// CNK's shadow of one process's I/O state — enough to rebuild the
/// ioproxy on a spare I/O node after a CIOD death (paper Fig 2's
/// mirrored fd/cwd state, turned into a recovery mechanism). Sent as
/// the payload of a kRestoreState request.
struct ShadowSnapshot {
  struct Fd {
    std::int32_t fd = 0;
    std::int32_t shareWithFd = -1;  // dup group leader, or -1
    std::uint64_t flags = 0;        // O_TRUNC is stripped on restore
    std::uint64_t offset = 0;
    std::string path;               // absolute, normalized
  };
  std::uint32_t pid = 0;
  std::int32_t nextFd = 3;
  std::string cwd = "/";
  std::vector<Fd> fds;

  std::vector<std::byte> encode() const;
  static std::optional<ShadowSnapshot> decode(
      std::span<const std::byte> buf);
};

}  // namespace bg::io
