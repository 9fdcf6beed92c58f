// Cache hierarchy model: per-core L1 and a shared banked L2/L3.
//
// The shared cache exposes the configuration knob the paper describes
// in §III: "L2 Cache configuration parameters that control the mapping
// of physical memory to cache controllers and to memory banks within
// the cache". Varying the mapping changes bank-conflict behaviour,
// which bench_cachemap measures (the design-time sensitivity study).
#pragma once

#include <cstdint>
#include <vector>

#include "hw/addr.hpp"
#include "sim/types.hpp"

namespace bg::hw {

class MemFaultModel;

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Set-associative cache with true tag state and LRU replacement.
class CacheArray {
 public:
  CacheArray(std::uint64_t sizeBytes, std::uint32_t lineBytes,
             std::uint32_t ways);

  /// Walks the line's set: returns true on hit; on miss the line is
  /// filled (an invalid way, else the LRU one).
  bool access(PAddr pa);

  /// Counts the accesses at pa, pa + stride, ... (up to n of them) as
  /// hits for as long as they hit, exactly as that many access() calls
  /// would, and returns how many hit. Stops at the first miss without
  /// counting it: that access is the caller's, through access(). The
  /// addresses are divided once; each step moves set and tag along.
  std::uint64_t hitRun(PAddr pa, std::uint64_t stride, std::uint64_t n);

  /// Invalidate everything (used by the reproducible-reset path, which
  /// flushes all caches to DDR before toggling reset — paper §III).
  void flushAll();

  std::uint32_t lineBytes() const { return lineBytes_; }
  const CacheStats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }

  /// Parity fault injection (paper §V-B: parity-protected L1). The
  /// Node attaches the machine-wide MemFaultModel; access() never
  /// consults it — Core judges line fills behind the parityArmed()
  /// flag.
  void attachFaults(MemFaultModel* m, int nodeId) {
    faults_ = m;
    nodeId_ = nodeId;
  }
  void armParityFaults(bool armed) {
    parityArmed_ = armed && faults_ != nullptr;
  }
  bool parityArmed() const { return parityArmed_; }

  /// Judge one line fill against the fault model (defined in
  /// cache.cpp). Only call when parityArmed(); draws nothing at
  /// zero rates.
  bool judgeParity();

 private:
  // Tag of an invalid way. A real tag is a line address divided by the
  // set count, so it never has the top bits set.
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

  /// The hit half of an access: on a tag match in `set`, stamp the way
  /// and count the hit.
  bool lookup(std::uint32_t set, std::uint64_t tag);

  std::uint32_t lineBytes_;
  std::uint32_t ways_;
  std::uint32_t sets_;
  std::uint64_t useClock_ = 0;
  // Way w of set s sits at s * ways_ + w in both arrays, so one set's
  // tag scan reads ways_ * 8 contiguous bytes.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lastUse_;
  CacheStats stats_;
  bool parityArmed_ = false;
  MemFaultModel* faults_ = nullptr;
  int nodeId_ = 0;
};

/// Bank-mapping policies for the shared cache (paper §III knob).
enum class BankMap : std::uint8_t {
  kDirect,   // bank = (pa / lineBytes) % banks
  kXorFold,  // bank = fold of several address bit groups (conflict-resistant)
  kHighBits, // bank = high physical address bits (pathological for tiling)
};

struct SharedCacheConfig {
  std::uint64_t sizeBytes = 8ULL << 20;  // BG/P: 8MB L3
  std::uint32_t lineBytes = 128;
  std::uint32_t ways = 8;
  std::uint32_t banks = 2;
  BankMap bankMap = BankMap::kXorFold;
  sim::Cycle hitLatency = 12;
  sim::Cycle bankBusy = 4;  // cycles a bank stays busy per access
};

/// Shared cache with banking and a configurable phys->bank mapping.
class SharedCache {
 public:
  explicit SharedCache(const SharedCacheConfig& cfg);

  struct Result {
    bool hit;
    sim::Cycle extraStall;  // bank-conflict stall cycles
  };

  /// Access at simulated time `now`; tracks per-bank busy windows to
  /// model conflicts between cores.
  Result access(PAddr pa, sim::Cycle now);

  std::uint32_t bankOf(PAddr pa) const;
  void flushAll();

  const SharedCacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  std::uint64_t bankConflicts() const { return conflicts_; }
  const std::vector<std::uint64_t>& bankAccesses() const {
    return bankAccesses_;
  }
  void resetStats();

 private:
  SharedCacheConfig cfg_;
  std::vector<CacheArray> bankArrays_;
  std::vector<sim::Cycle> bankBusyUntil_;
  std::vector<std::uint64_t> bankAccesses_;
  std::uint64_t conflicts_ = 0;
  CacheStats stats_;
};

}  // namespace bg::hw
