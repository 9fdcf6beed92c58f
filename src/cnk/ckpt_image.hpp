// On-disk format of a compute node's application checkpoint image.
//
// The image captures everything CNK needs to rebuild the loaded job's
// user-visible state on a freshly-loaded node of the same geometry:
// per-process brk / mmap-zone bookkeeping / signal handlers, every
// thread's architectural context (registers, pc, guard range), and the
// contents of all writable static regions (data, heap/stack, shared,
// persist) serialized sparsely — all-zero 64KB granules are elided.
// Read-only text is NOT in the image: the job loader re-creates it
// bit-identically from the executable.
//
// Integrity: the image ends in a sim::hashBytes seal over all
// preceding bytes. A torn or truncated image (crash mid-write) fails
// the seal check and restore falls back to a scratch start — never a
// wedge.
// Atomicity: the shipper writes `imageTmpPath` and renames it onto
// `imagePath` (a single replay-cached CIOD op), so a committed image
// is always complete and a crash mid-checkpoint leaves the previous
// committed image as the truth.
#pragma once

#include <cstdint>
#include <string>

namespace bg::cnk::ckpt {

inline constexpr std::uint32_t kMagic = 0x434E4B43;  // "CNKC"
inline constexpr std::uint32_t kVersion = 1;

/// Sparse-serialization granule: all-zero chunks this size are elided.
inline constexpr std::uint64_t kChunkBytes = 64ULL << 10;

/// Upper bound a restore read asks CIOD for (images are far smaller).
inline constexpr std::uint64_t kMaxImageBytes = 256ULL << 20;

/// Shared-filesystem path of a node's committed image. Keyed by job id
/// and the node's first rank so every node of a job writes a distinct
/// file and a requeued job finds its own images.
inline std::string imagePath(std::uint32_t jobId, int firstRank) {
  return "/ckpt/job" + std::to_string(jobId) + ".r" +
         std::to_string(firstRank) + ".ckpt";
}
/// The in-flight half of the two-phase commit.
inline std::string imageTmpPath(std::uint32_t jobId, int firstRank) {
  return imagePath(jobId, firstRank) + ".tmp";
}

}  // namespace bg::cnk::ckpt
