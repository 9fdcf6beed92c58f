// Flat little-endian byte serialization for checkpoint images.
//
// The service node (src/svc) checkpoints its control-plane state into
// a persistent-memory region; these helpers define the wire format.
// Reads are bounds-checked: a truncated or corrupted image surfaces as
// ok() == false rather than undefined behavior, so restart code can
// fall back to a cold start.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bg::sim {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v) { word(v, 4); }
  void u64(std::uint64_t v) { word(v, 8); }
  void i64(std::int64_t v) { word(static_cast<std::uint64_t>(v), 8); }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) out_.push_back(static_cast<std::byte>(c));
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
  std::vector<std::byte> out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> in) : in_(in) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(word(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(word(4)); }
  std::uint64_t u64() { return word(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(word(8)); }
  std::string str() {
    const std::uint64_t n = u64();
    if (pos_ + n > in_.size()) {
      ok_ = false;
      pos_ = in_.size();
      return {};
    }
    std::string s;
    s.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      s.push_back(static_cast<char>(in_[pos_ + i]));
    }
    pos_ += n;
    return s;
  }

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

}  // namespace bg::sim
