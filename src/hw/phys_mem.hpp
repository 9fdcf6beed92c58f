// Physical memory with real backing bytes.
//
// Backed sparsely by 64KB frames so a 2GB simulated DDR costs only what
// is actually touched. Real contents matter: function-shipped I/O
// marshals real buffers, the persistent-memory feature must preserve
// real linked-list bytes across job boundaries, and the reproducibility
// hash digests real memory images.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "hw/addr.hpp"

namespace bg::hw {

class PhysMem {
 public:
  explicit PhysMem(std::uint64_t size) : size_(size) {}

  std::uint64_t size() const { return size_; }

  void write(PAddr addr, std::span<const std::byte> data);
  void read(PAddr addr, std::span<std::byte> out) const;

  std::uint64_t read64(PAddr addr) const;
  void write64(PAddr addr, std::uint64_t value);

  /// Zero a range (releases nothing; just clears bytes).
  void zero(PAddr addr, std::uint64_t len);

  /// FNV-1a digest of a physical range (untouched frames hash as zero
  /// bytes, matching their read value).
  std::uint64_t hashRange(PAddr addr, std::uint64_t len) const;

  /// DDR self-refresh (paper §III): while in self-refresh, contents are
  /// preserved but any access is a hardware error.
  void enterSelfRefresh() { selfRefresh_ = true; }
  void exitSelfRefresh() { selfRefresh_ = false; }
  bool inSelfRefresh() const { return selfRefresh_; }

  /// Number of frames actually materialized (for tests/metrics).
  std::size_t framesTouched() const { return frames_.size(); }

  /// True when any frame overlapping [addr, addr+len) is materialized.
  /// A range with none was never written and reads as zero bytes.
  bool anyFramePresent(PAddr addr, std::uint64_t len) const;

  static constexpr std::uint64_t kFrameSize = 64ULL << 10;

 private:
  std::byte* frameFor(std::uint64_t frameIndex);
  const std::byte* frameIfPresent(std::uint64_t frameIndex) const;
  void checkAccess(PAddr addr, std::uint64_t len) const;

  std::uint64_t size_;
  bool selfRefresh_ = false;
  std::unordered_map<std::uint64_t, std::unique_ptr<std::byte[]>> frames_;
};

}  // namespace bg::hw
