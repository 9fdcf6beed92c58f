// Persistent memory across job boundaries (paper §IV-D).
//
// An application tags memory as persistent by name (shm_open-style).
// When the next job starts, regions with matching names are re-mapped
// at the SAME virtual addresses, so linked-list-style pointer
// structures survive. The registry lives at node scope: it outlives
// processes and jobs; the backing physical range is never reused for
// anything else, and its DRAM contents are simply left in place.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hw/addr.hpp"
#include "hw/phys_mem.hpp"

namespace bg::cnk {

struct PersistRegion {
  std::string name;
  hw::VAddr vbase = 0;   // fixed virtual address, identical across jobs
  hw::PAddr pbase = 0;
  std::uint64_t size = 0;     // mapped (page-rounded) size
  std::uint64_t pageSize = 0;
  std::uint32_t ownerUid = 0;  // privilege check across jobs
};

class PersistRegistry {
 public:
  /// Configure the physical pool persistent regions are carved from.
  void configurePool(hw::PAddr base, std::uint64_t size,
                     hw::VAddr vbase);

  /// Open-or-create. On create, carves `size` (page-rounded) bytes from
  /// the pool at the next fixed virtual address. On open, `size` must
  /// not exceed the existing region and uid must match the owner.
  /// Returns nullopt on privilege mismatch or pool exhaustion.
  std::optional<PersistRegion> openOrCreate(const std::string& name,
                                            std::uint64_t size,
                                            std::uint32_t uid);

  const PersistRegion* find(const std::string& name) const;
  std::size_t regionCount() const { return regions_.size(); }
  std::uint64_t poolBytesUsed() const { return poolUsed_; }

  /// Drop a region (explicit delete; job teardown never does this).
  bool remove(const std::string& name, std::uint32_t uid);

 private:
  hw::PAddr poolBase_ = 0;
  std::uint64_t poolSize_ = 0;
  std::uint64_t poolUsed_ = 0;
  hw::VAddr vCursor_ = 0;
  std::map<std::string, PersistRegion> regions_;
};

/// A sealed record in persistent memory: [magic][payload length]
/// [hashBytes seal of the payload], then the payload. Every image kept
/// in a persistent region (the service node's checkpoint snapshot and
/// journal records, the front door's in-flight table) is one, so a torn
/// or overwritten record is always caught before anything decodes it.
inline constexpr std::uint64_t kSealedHeaderBytes = 24;

/// Write `payload` as a sealed record at `at`. Writes nothing and
/// returns false when header plus payload exceed `room` bytes.
bool writeSealed(hw::PhysMem& mem, hw::PAddr at, std::uint64_t room,
                 std::uint64_t magic, std::span<const std::byte> payload);

/// The payload of the sealed record at `at`; nullopt when the magic
/// differs, the length runs past `room`, or the seal does not match.
std::optional<std::vector<std::byte>> readSealed(const hw::PhysMem& mem,
                                                 hw::PAddr at,
                                                 std::uint64_t room,
                                                 std::uint64_t magic);

}  // namespace bg::cnk
