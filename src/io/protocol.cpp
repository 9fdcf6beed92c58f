#include "io/protocol.hpp"

#include "sim/bytes.hpp"

namespace bg::io {

std::vector<std::byte> FsRequest::encode() const {
  sim::ByteWriter w;
  w.u64(seq);
  w.i32(srcNode);
  w.u32(pid);
  w.u32(tid);
  w.u32(static_cast<std::uint32_t>(op));
  w.u64(a0);
  w.u64(a1);
  w.u64(a2);
  w.str32(path);
  w.blob32(payload);
  return sim::seal(std::move(w));
}

std::optional<FsRequest> FsRequest::decode(std::span<const std::byte> buf) {
  const auto body = sim::unseal(buf);
  if (!body) return std::nullopt;
  FsRequest r;
  sim::ByteReader rd(*body);
  r.seq = rd.u64();
  r.srcNode = rd.i32();
  r.pid = rd.u32();
  r.tid = rd.u32();
  r.op = static_cast<FsOp>(rd.u32());
  r.a0 = rd.u64();
  r.a1 = rd.u64();
  r.a2 = rd.u64();
  r.path = rd.str32();
  r.payload = rd.blob32();
  if (!rd.ok()) return std::nullopt;
  return r;
}

std::vector<std::byte> FsReply::encode() const {
  sim::ByteWriter w;
  w.u64(seq);
  w.i32(srcNode);
  w.u32(pid);
  w.u32(tid);
  w.i64(result);
  w.blob32(payload);
  return sim::seal(std::move(w));
}

std::optional<FsReply> FsReply::decode(std::span<const std::byte> buf) {
  const auto body = sim::unseal(buf);
  if (!body) return std::nullopt;
  FsReply r;
  sim::ByteReader rd(*body);
  r.seq = rd.u64();
  r.srcNode = rd.i32();
  r.pid = rd.u32();
  r.tid = rd.u32();
  r.result = rd.i64();
  r.payload = rd.blob32();
  if (!rd.ok()) return std::nullopt;
  return r;
}

std::vector<std::byte> ShadowSnapshot::encode() const {
  sim::ByteWriter w;
  w.u32(pid);
  w.i32(nextFd);
  w.str32(cwd);
  w.u32(static_cast<std::uint32_t>(fds.size()));
  for (const Fd& f : fds) {
    w.i32(f.fd);
    w.i32(f.shareWithFd);
    w.u64(f.flags);
    w.u64(f.offset);
    w.str32(f.path);
  }
  // No checksum of its own: a snapshot always travels inside a sealed
  // FsRequest payload.
  return std::move(w).take();
}

std::optional<ShadowSnapshot> ShadowSnapshot::decode(
    std::span<const std::byte> buf) {
  ShadowSnapshot s;
  sim::ByteReader rd(buf);
  s.pid = rd.u32();
  s.nextFd = rd.i32();
  s.cwd = rd.str32();
  const std::uint32_t n = rd.u32();
  // Each entry needs at least 28 bytes; reject absurd counts before
  // resize so a truncated buffer can't trigger a huge allocation.
  if (static_cast<std::size_t>(n) * 28 > buf.size()) return std::nullopt;
  s.fds.resize(n);
  for (Fd& f : s.fds) {
    f.fd = rd.i32();
    f.shareWithFd = rd.i32();
    f.flags = rd.u64();
    f.offset = rd.u64();
    f.path = rd.str32();
  }
  if (!rd.ok()) return std::nullopt;
  return s;
}

}  // namespace bg::io
