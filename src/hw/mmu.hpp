// Software-managed MMU: TLB with variable page sizes + DAC registers.
//
// Models the PPC450-style software-loaded TLB that both kernels
// program. CNK installs a *static* set of large-page entries at job
// load and never takes a miss (paper §IV-C); the FWK refills 4KB
// entries on demand. The Debug Address Compare (DAC) registers are the
// mechanism CNK uses for stack guard pages (paper Fig 4).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/addr.hpp"

namespace bg::hw {

struct TlbEntry {
  std::uint32_t pid = 0;  // address-space id; 0 matches nothing
  VAddr vaddr = 0;        // page-aligned
  PAddr paddr = 0;
  std::uint64_t size = 0;  // page size in bytes (power of two)
  std::uint8_t perms = kPermNone;
  bool valid = false;

  bool covers(std::uint32_t p, VAddr va) const {
    return valid && pid == p && va >= vaddr && va - vaddr < size;
  }
};

struct Translation {
  PAddr paddr;
  std::uint8_t perms;
};

enum class TlbResult : std::uint8_t { kHit, kMiss, kPermFault };

/// A Debug Address Compare register pair: raises a debug exception when
/// a data access falls inside [lo, hi). CNK points one at the stack
/// guard range of the thread running on the core.
struct DacRange {
  bool enabled = false;
  VAddr lo = 0;
  VAddr hi = 0;
  bool onWrite = true;
  bool onRead = true;

  bool matches(VAddr va, std::uint64_t len, Access a) const {
    if (!enabled) return false;
    if (a == Access::kWrite && !onWrite) return false;
    if (a == Access::kRead && !onRead) return false;
    return va < hi && va + len > lo;
  }
};

class Mmu {
 public:
  explicit Mmu(int tlbEntries = 64) : tlb_(tlbEntries) {}

  /// Look up a translation. On kHit, *out is filled. Updates round-robin
  /// reference info for replacement.
  ///
  /// The header-inline fast path is a 1-entry micro-TLB holding the
  /// last page whose hit is provably order-independent (no earlier TLB
  /// slot overlaps it — see translateSlow); with CNK's static large
  /// pages nearly every data access resolves here without walking the
  /// TLB array.
  TlbResult translate(std::uint32_t pid, VAddr va, Access access,
                      Translation* out) {
    std::uint64_t bytesLeft = 0;
    PAddr pa = 0;
    if (microServes(pid, va, access, &bytesLeft, &pa)) {
      ++hits_;
      if (out != nullptr) {
        out->paddr = pa;
        out->perms = microPerms_;
      }
      return TlbResult::kHit;
    }
    // A permission fault on the micro-TLB's page also lands here: its
    // entry is the first TLB slot covering va, so the walk finds it.
    return translateSlow(pid, va, access, out);
  }

  /// Whether the micro-TLB serves `va` for `access`, as translate()
  /// does on its fast path, without counting the hit. On true,
  /// *bytesLeft is the page's extent from va on and *pa is va's
  /// translation; a caller that uses it counts the hits with
  /// countHits().
  bool microServes(std::uint32_t pid, VAddr va, Access access,
                   std::uint64_t* bytesLeft, PAddr* pa) const {
    if (!microValid_ || pid != microPid_ || va - microVa_ >= microSize_ ||
        !permAllows(microPerms_, access)) {
      return false;
    }
    *bytesLeft = microSize_ - (va - microVa_);
    *pa = microPa_ + (va - microVa_);
    return true;
  }
  void countHits(std::uint64_t n) { hits_ += n; }

  /// Install an entry (kernel-privileged). Replaces an invalid slot if
  /// any, otherwise evicts round-robin. Returns slot index.
  int install(const TlbEntry& entry);

  /// Invalidate all entries for a pid (or all if pid == 0).
  void invalidate(std::uint32_t pid = 0);

  /// Probe whether a translation exists (no fault side effects).
  std::optional<Translation> probe(std::uint32_t pid, VAddr va) const;

  int validCount() const;
  std::uint64_t missCount() const { return misses_; }
  std::uint64_t hitCount() const { return hits_; }

  // DAC registers (2 pairs, as on the 450 core).
  static constexpr int kNumDac = 2;
  DacRange& dac(int i) { return dac_[i]; }
  const DacRange& dac(int i) const { return dac_[i]; }

  /// True if any DAC range traps this access.
  bool dacMatches(VAddr va, std::uint64_t len, Access a) const;

  const std::vector<TlbEntry>& entries() const { return tlb_; }

 private:
  TlbResult translateSlow(std::uint32_t pid, VAddr va, Access access,
                          Translation* out);

  std::vector<TlbEntry> tlb_;
  DacRange dac_[kNumDac];
  int nextVictim_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t hits_ = 0;

  // Micro-TLB: snapshot of one uniquely-covering entry; dropped on any
  // install/invalidate.
  bool microValid_ = false;
  std::uint8_t microPerms_ = kPermNone;
  std::uint32_t microPid_ = 0;
  VAddr microVa_ = 0;
  PAddr microPa_ = 0;
  std::uint64_t microSize_ = 0;
};

}  // namespace bg::hw
