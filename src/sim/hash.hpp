// Incremental 64-bit state hashing.
//
// The "logic scan" reproducibility experiments (paper §III) compare
// snapshots of architectural state across runs. We reduce a snapshot to
// an FNV-1a digest; exact equality of digests cycle-by-cycle is our
// analogue of a matching logic-scan waveform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace bg::sim {

class Fnv1a {
 public:
  Fnv1a() = default;

  Fnv1a& mix(std::uint64_t v);
  Fnv1a& mixBytes(std::span<const std::byte> bytes);
  Fnv1a& mixString(std::string_view s);

  std::uint64_t digest() const { return h_; }

  /// Resume from a previously captured digest — the FNV-1a state is
  /// its running hash value, so a checkpointed digest continues the
  /// same stream (service-node restart keeps its schedule hash).
  void restore(std::uint64_t h) { h_ = h; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// One-shot hash of a byte span: the integrity seal of wire messages,
/// checkpoint images and persistent stores. Not FNV-1a and not
/// stream-compatible with Fnv1a: four 64-bit lanes over little-endian
/// words, then the tail bytes and the length. Any single-byte change of
/// an input changes its digest, so one corrupted byte is always caught.
std::uint64_t hashBytes(std::span<const std::byte> bytes);

}  // namespace bg::sim
