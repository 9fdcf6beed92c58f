// Flat little-endian byte serialization: the one codec behind every
// persisted image and every wire message.
//
// Images (service-node state, RAS log, accounting, mmap tracker, CNK
// checkpoint, coredump, front-door state) and the two wire protocols
// (CNK <-> CIOD function shipping in src/io, the RPC front door in
// src/frontdoor) all encode through ByteWriter and decode through
// ByteReader. Integers are written shift by shift, never as a raw
// struct memcpy, so every layout is platform-pinned; tests/test_wire.cpp
// asserts the exact bytes. Strings carry a u64 length prefix in images
// (str) and a u32 one on the wire (str32, blob32); both are pinned.
//
// Reads are bounds-checked: a truncated or corrupted buffer surfaces as
// ok() == false rather than undefined behavior, so a decoder reads its
// fields and checks ok() once, and restart code can fall back to a
// cold start.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/hash.hpp"

namespace bg::sim {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v) { word(v, 4); }
  void u64(std::uint64_t v) { word(v, 8); }
  void i32(std::int32_t v) { word(static_cast<std::uint32_t>(v), 4); }
  void i64(std::int64_t v) { word(static_cast<std::uint64_t>(v), 8); }
  /// u64 length prefix (images).
  void str(const std::string& s) {
    u64(s.size());
    append(std::as_bytes(std::span(s)));
  }
  /// u32 length prefix (wire messages).
  void str32(const std::string& s) { blob32(std::as_bytes(std::span(s))); }
  void blob32(std::span<const std::byte> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    append(b);
  }
  /// Append `n` zero bytes, no length prefix (caller frames them), and
  /// return them for the caller to fill in place (valid until the next
  /// write).
  std::span<std::byte> grow(std::size_t n) {
    out_.resize(out_.size() + n);
    return std::span(out_).last(n);
  }
  /// Drop everything written after the first `n` bytes.
  void truncate(std::size_t n) { out_.resize(n); }
  /// Overwrite the u32 written at byte offset `pos` (a count known only
  /// after the items it prefixes).
  void patchU32(std::size_t pos, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_[pos + static_cast<std::size_t>(i)] =
          static_cast<std::byte>((v >> (i * 8)) & 0xFF);
    }
  }

  std::size_t size() const { return out_.size(); }
  const std::vector<std::byte>& bytes() const { return out_; }
  std::vector<std::byte> take() && { return std::move(out_); }

 private:
  void word(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      out_.push_back(static_cast<std::byte>((v >> (i * 8)) & 0xFF));
    }
  }
  // GCC 12 at -O3 inlines this copy into callers whose span it cannot
  // size and reports a bogus -Wstringop-overflow (the copy is exactly
  // b.size() bytes into space insert() just made). Silenced here, at
  // its one site, so a real warning elsewhere still shows.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
  void append(std::span<const std::byte> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  std::vector<std::byte> out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> in) : in_(in) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(word(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(word(4)); }
  std::uint64_t u64() { return word(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(word(8)); }
  /// u64 length prefix (images).
  std::string str() { return chars(view(u64())); }
  /// u32 length prefix (wire messages).
  std::string str32() { return chars(view(u32())); }
  // The same GCC 12 false positive as ByteWriter::append, as a bogus
  // -Wstringop-overread when view() may have returned an empty span.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif
  std::vector<std::byte> blob32() {
    const std::span<const std::byte> v = view(u32());
    return {v.begin(), v.end()};
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  /// The next `n` bytes in place, no length prefix and no copy; empty
  /// (and ok() poisoned) when fewer remain.
  std::span<const std::byte> view(std::size_t n) {
    if (pos_ + n > in_.size()) {
      ok_ = false;
      pos_ = in_.size();
      return {};
    }
    const std::span<const std::byte> v = in_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  /// False once any read ran past the end; all subsequent reads
  /// return zero values.
  bool ok() const { return ok_; }
  bool atEnd() const { return pos_ == in_.size(); }
  /// Bytes consumed so far.
  std::size_t pos() const { return pos_; }

 private:
  static std::string chars(std::span<const std::byte> v) {
    return {reinterpret_cast<const char*>(v.data()), v.size()};
  }
  std::uint64_t word(std::size_t n) {
    if (pos_ + n > in_.size()) {
      ok_ = false;
      pos_ = in_.size();
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(in_[pos_ + i]) << (i * 8);
    }
    pos_ += n;
    return v;
  }

  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// The trailing seal: append a hashBytes digest of everything written,
/// giving <body><u64 checksum>.
inline std::vector<std::byte> seal(ByteWriter&& w) {
  w.u64(hashBytes(w.bytes()));
  return std::move(w).take();
}

/// Verify and strip the trailing seal; nullopt on a mismatch
/// (corruption anywhere, checksum included) or a buffer too short to
/// hold one.
inline std::optional<std::span<const std::byte>> unseal(
    std::span<const std::byte> buf) {
  if (buf.size() < sizeof(std::uint64_t)) return std::nullopt;
  const std::span<const std::byte> body =
      buf.first(buf.size() - sizeof(std::uint64_t));
  if (hashBytes(body) != ByteReader(buf.subspan(body.size())).u64()) {
    return std::nullopt;
  }
  return body;
}

}  // namespace bg::sim
