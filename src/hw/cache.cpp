#include "hw/cache.hpp"

#include <cassert>

#include "hw/mem_fault.hpp"

namespace bg::hw {

CacheArray::CacheArray(std::uint64_t sizeBytes, std::uint32_t lineBytes,
                       std::uint32_t ways)
    : lineBytes_(lineBytes), ways_(ways) {
  assert(sizeBytes % (static_cast<std::uint64_t>(lineBytes) * ways) == 0);
  sets_ = static_cast<std::uint32_t>(sizeBytes / lineBytes / ways);
  lines_.resize(static_cast<std::size_t>(sets_) * ways_);
}

bool CacheArray::access(PAddr pa) {
  const std::uint64_t lineAddr = pa / lineBytes_;
  ++stats_.accesses;
  const std::uint32_t set = static_cast<std::uint32_t>(lineAddr % sets_);
  const std::uint64_t tag = lineAddr / sets_;
  Line* base = &lines_[static_cast<std::size_t>(set) * ways_];
  ++useClock_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].lastUse = useClock_;
      ++stats_.hits;
      return true;
    }
  }
  ++stats_.misses;
  // Fill: pick invalid or LRU way.
  Line* victim = base;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lastUse < victim->lastUse) victim = &base[w];
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lastUse = useClock_;
  return false;
}

void CacheArray::flushAll() {
  for (Line& l : lines_) l.valid = false;
}

// Out of line so the header stays free of the fault model. A line fill
// is the natural injection point: parity is checked when the line is
// brought in and first used.
bool CacheArray::judgeParity() {
  if (faults_ == nullptr) return false;
  return faults_->judgeParity(nodeId_);
}

SharedCache::SharedCache(const SharedCacheConfig& cfg) : cfg_(cfg) {
  assert(cfg_.banks >= 1);
  for (std::uint32_t b = 0; b < cfg_.banks; ++b) {
    bankArrays_.emplace_back(cfg_.sizeBytes / cfg_.banks, cfg_.lineBytes,
                             cfg_.ways);
  }
  bankBusyUntil_.assign(cfg_.banks, 0);
  bankAccesses_.assign(cfg_.banks, 0);
}

std::uint32_t SharedCache::bankOf(PAddr pa) const {
  const std::uint64_t line = pa / cfg_.lineBytes;
  switch (cfg_.bankMap) {
    case BankMap::kDirect:
      return static_cast<std::uint32_t>(line % cfg_.banks);
    case BankMap::kXorFold: {
      // Fold three disjoint bit groups; resists power-of-two strides.
      const std::uint64_t f = line ^ (line >> 7) ^ (line >> 13);
      return static_cast<std::uint32_t>(f % cfg_.banks);
    }
    case BankMap::kHighBits:
      // High bits of a contiguous allocation barely vary: most traffic
      // lands in one bank. This is the "bad mapping" the design-time
      // studies were screening for.
      return static_cast<std::uint32_t>((pa >> 22) % cfg_.banks);
  }
  return 0;
}

SharedCache::Result SharedCache::access(PAddr pa, sim::Cycle now) {
  const std::uint32_t bank = bankOf(pa);
  ++bankAccesses_[bank];
  ++stats_.accesses;
  sim::Cycle stall = 0;
  if (bankBusyUntil_[bank] > now) {
    stall = bankBusyUntil_[bank] - now;
    ++conflicts_;
  }
  bankBusyUntil_[bank] = now + stall + cfg_.bankBusy;
  const bool hit = bankArrays_[bank].access(pa);
  if (hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return Result{hit, stall};
}

void SharedCache::flushAll() {
  for (CacheArray& a : bankArrays_) a.flushAll();
}

void SharedCache::resetStats() {
  stats_ = {};
  conflicts_ = 0;
  bankAccesses_.assign(cfg_.banks, 0);
  for (CacheArray& a : bankArrays_) a.resetStats();
}

}  // namespace bg::hw
