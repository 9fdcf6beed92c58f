// Address-range bookkeeping behind CNK's mmap (paper §IV-C).
//
// "Since CNK statically maps memory, the mmap system call does not
// need to perform any adjustments, or handle page faults. It merely
// provides free addresses to the application" — plus tracking of
// allocated ranges and coalescing of freed ones. This tracker manages
// the mmap zone at the top of the heap/stack range (growing down,
// toward brk growing up).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "hw/addr.hpp"
#include "sim/bytes.hpp"

namespace bg::cnk {

class MmapTracker {
 public:
  MmapTracker() = default;

  /// Define the managed range [lo, hi).
  void reset(hw::VAddr lo, hw::VAddr hi);

  /// Allocate len bytes (rounded to align); prefers the highest free
  /// block so the zone grows downward toward brk. Returns nullopt when
  /// no free block fits.
  std::optional<hw::VAddr> alloc(std::uint64_t len,
                                 std::uint64_t align = 4096);

  /// Allocate at a fixed address (MAP_FIXED); fails if overlapping an
  /// existing allocation or outside the zone.
  bool allocFixed(hw::VAddr addr, std::uint64_t len);

  /// Free a previously-allocated range; adjacent free ranges coalesce.
  /// Partial unmaps of an allocation are supported.
  bool free(hw::VAddr addr, std::uint64_t len);

  /// Record a permission change (bookkeeping only — CNK does not
  /// enforce mmap permissions in hardware). Coalesces the bookkeeping
  /// ranges as the paper describes.
  bool setProt(hw::VAddr addr, std::uint64_t len, std::uint8_t perms);

  bool isAllocated(hw::VAddr addr) const;
  std::uint64_t bytesAllocated() const { return bytesAllocated_; }
  std::size_t freeBlockCount() const { return free_.size(); }
  std::size_t allocatedBlockCount() const { return allocated_.size(); }
  hw::VAddr lowestAllocated() const;

  /// Serialize the full zone state (bounds, free list, allocations)
  /// into a checkpoint image / restore it. loadFrom replaces all state
  /// and returns false on a malformed image.
  void saveTo(sim::ByteWriter& w) const;
  bool loadFrom(sim::ByteReader& r);

 private:
  struct Range {
    std::uint64_t len;
    std::uint8_t perms;
  };
  void insertFree(hw::VAddr addr, std::uint64_t len);
  void mergeAllocatedNeighbors(hw::VAddr addr);

  hw::VAddr lo_ = 0;
  hw::VAddr hi_ = 0;
  std::map<hw::VAddr, std::uint64_t> free_;  // addr -> len, coalesced
  std::map<hw::VAddr, Range> allocated_;
  std::uint64_t bytesAllocated_ = 0;
};

}  // namespace bg::cnk
