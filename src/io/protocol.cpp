#include "io/protocol.hpp"

#include "msg/wire.hpp"

namespace bg::io {

namespace {

// Field framing and the checksum seal are shared with the RPC
// front door (src/frontdoor) — one wire idiom, pinned byte-for-byte by
// tests/test_wire.cpp.
using msg::wire::Reader;
using msg::wire::Writer;
using msg::wire::seal;
using msg::wire::unseal;

}  // namespace

std::vector<std::byte> FsRequest::encode() const {
  Writer w;
  w.u64(seq);
  w.i32(srcNode);
  w.u32(pid);
  w.u32(tid);
  w.u32(static_cast<std::uint32_t>(op));
  w.u64(a0);
  w.u64(a1);
  w.u64(a2);
  w.str(path);
  w.bytes(payload);
  return seal(std::move(w));
}

std::optional<FsRequest> FsRequest::decode(std::span<const std::byte> buf) {
  const auto body = unseal(buf);
  if (!body) return std::nullopt;
  FsRequest r;
  Reader rd(*body);
  std::uint32_t op = 0;
  if (!rd.u64(&r.seq) || !rd.i32(&r.srcNode) || !rd.u32(&r.pid) ||
      !rd.u32(&r.tid) || !rd.u32(&op) || !rd.u64(&r.a0) || !rd.u64(&r.a1) ||
      !rd.u64(&r.a2) || !rd.str(&r.path) || !rd.bytes(&r.payload)) {
    return std::nullopt;
  }
  r.op = static_cast<FsOp>(op);
  return r;
}

std::vector<std::byte> FsReply::encode() const {
  Writer w;
  w.u64(seq);
  w.i32(srcNode);
  w.u32(pid);
  w.u32(tid);
  w.i64(result);
  w.bytes(payload);
  return seal(std::move(w));
}

std::optional<FsReply> FsReply::decode(std::span<const std::byte> buf) {
  const auto body = unseal(buf);
  if (!body) return std::nullopt;
  FsReply r;
  Reader rd(*body);
  if (!rd.u64(&r.seq) || !rd.i32(&r.srcNode) || !rd.u32(&r.pid) ||
      !rd.u32(&r.tid) || !rd.i64(&r.result) || !rd.bytes(&r.payload)) {
    return std::nullopt;
  }
  return r;
}

std::vector<std::byte> ShadowSnapshot::encode() const {
  Writer w;
  w.u32(pid);
  w.i32(nextFd);
  w.str(cwd);
  w.u32(static_cast<std::uint32_t>(fds.size()));
  for (const Fd& f : fds) {
    w.i32(f.fd);
    w.i32(f.shareWithFd);
    w.u64(f.flags);
    w.u64(f.offset);
    w.str(f.path);
  }
  // No checksum of its own: a snapshot always travels inside a sealed
  // FsRequest payload.
  return std::move(w).take();
}

std::optional<ShadowSnapshot> ShadowSnapshot::decode(
    std::span<const std::byte> buf) {
  ShadowSnapshot s;
  Reader rd(buf);
  std::uint32_t n = 0;
  if (!rd.u32(&s.pid) || !rd.i32(&s.nextFd) || !rd.str(&s.cwd) ||
      !rd.u32(&n)) {
    return std::nullopt;
  }
  // Each entry needs at least 28 bytes; reject absurd counts before
  // resize so a truncated buffer can't trigger a huge allocation.
  if (static_cast<std::size_t>(n) * 28 > buf.size()) return std::nullopt;
  s.fds.resize(n);
  for (Fd& f : s.fds) {
    if (!rd.i32(&f.fd) || !rd.i32(&f.shareWithFd) || !rd.u64(&f.flags) ||
        !rd.u64(&f.offset) || !rd.str(&f.path)) {
      return std::nullopt;
    }
  }
  return s;
}

}  // namespace bg::io
