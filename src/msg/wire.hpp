// Shared message-framing helpers: flat little-endian field
// serialization plus the sim::hashBytes trailing-checksum seal.
//
// Two wire protocols ride the simulated networks — the CNK <-> CIOD
// function-shipping protocol (src/io) and the service node's
// client-facing RPC front door (src/frontdoor). Both need the same
// primitives: fixed-width fields, length-prefixed strings/blobs, and a
// checksum trailer so link corruption is *detected* (decode fails)
// rather than silently absorbed. They used to live as private classes
// inside io/protocol.cpp; they are shared here so the two protocols
// cannot drift apart byte-wise.
//
// The encoding is explicitly little-endian (shift-based, never a raw
// struct memcpy), so the byte layout is platform-pinned; the unit test
// in tests/test_wire.cpp asserts the exact encoded bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/hash.hpp"

namespace bg::msg::wire {

/// Append-only field writer. Strings and byte blobs carry a u32 length
/// prefix; all integers are little-endian.
class Writer {
 public:
  void u32(std::uint32_t v) { word(v, 4); }
  void u64(std::uint64_t v) { word(v, 8); }
  void i32(std::int32_t v) { word(static_cast<std::uint32_t>(v), 4); }
  void i64(std::int64_t v) { word(static_cast<std::uint64_t>(v), 8); }
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(const std::vector<std::byte>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }
  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void word(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (i * 8)) & 0xFF));
    }
  }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::byte> buf_;
};

/// Bounds-checked field reader; every accessor returns false once the
/// buffer runs short, so decoders can chain with `&&` and bail.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> buf) : buf_(buf) {}

  bool u32(std::uint32_t* v) {
    std::uint64_t w = 0;
    if (!word(&w, 4)) return false;
    *v = static_cast<std::uint32_t>(w);
    return true;
  }
  bool u64(std::uint64_t* v) { return word(v, 8); }
  bool i32(std::int32_t* v) {
    std::uint32_t w = 0;
    if (!u32(&w)) return false;
    *v = static_cast<std::int32_t>(w);
    return true;
  }
  bool i64(std::int64_t* v) {
    std::uint64_t w = 0;
    if (!word(&w, 8)) return false;
    *v = static_cast<std::int64_t>(w);
    return true;
  }
  bool u8(std::uint8_t* v) {
    if (buf_.size() - pos_ < 1) return false;
    *v = static_cast<std::uint8_t>(buf_[pos_++]);
    return true;
  }
  bool str(std::string* s) {
    std::uint32_t n = 0;
    if (!u32(&n) || buf_.size() - pos_ < n) return false;
    s->assign(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  bool bytes(std::vector<std::byte>* b) {
    std::uint32_t n = 0;
    if (!u32(&n) || buf_.size() - pos_ < n) return false;
    b->assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
              buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  bool word(std::uint64_t* v, int n) {
    if (buf_.size() - pos_ < static_cast<std::size_t>(n)) return false;
    std::uint64_t w = 0;
    for (int i = 0; i < n; ++i) {
      w |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(i)])
           << (i * 8);
    }
    pos_ += static_cast<std::size_t>(n);
    *v = w;
    return true;
  }
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

/// Append a sim::hashBytes digest of everything written so far; the
/// wire format is <body><u64 checksum>.
inline std::vector<std::byte> seal(Writer&& w) {
  std::vector<std::byte> buf = std::move(w).take();
  const std::uint64_t sum = sim::hashBytes(buf);
  Writer tail;
  tail.u64(sum);
  const std::vector<std::byte> t = std::move(tail).take();
  buf.insert(buf.end(), t.begin(), t.end());
  return buf;
}

/// Verify and strip the trailing checksum; nullopt on mismatch
/// (corruption anywhere in the message, checksum included).
inline std::optional<std::span<const std::byte>> unseal(
    std::span<const std::byte> buf) {
  if (buf.size() < sizeof(std::uint64_t)) return std::nullopt;
  const std::span<const std::byte> body =
      buf.first(buf.size() - sizeof(std::uint64_t));
  std::uint64_t sum = 0;
  Reader tail(buf.subspan(body.size()));
  tail.u64(&sum);
  if (sim::hashBytes(body) != sum) return std::nullopt;
  return body;
}

}  // namespace bg::msg::wire
