#include "hw/cache.hpp"

#include <algorithm>
#include <cassert>

#include "hw/mem_fault.hpp"

namespace bg::hw {

CacheArray::CacheArray(std::uint64_t sizeBytes, std::uint32_t lineBytes,
                       std::uint32_t ways)
    : lineBytes_(lineBytes), ways_(ways) {
  assert(lineBytes > 1 &&
         sizeBytes % (static_cast<std::uint64_t>(lineBytes) * ways) == 0);
  sets_ = static_cast<std::uint32_t>(sizeBytes / lineBytes / ways);
  tags_.assign(static_cast<std::size_t>(sets_) * ways_, kInvalid);
  lastUse_.assign(tags_.size(), 0);
}

bool CacheArray::lookup(std::uint32_t set, std::uint64_t tag) {
  const std::size_t base = static_cast<std::size_t>(set) * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (tags_[base + w] == tag) {
      ++stats_.accesses;
      ++stats_.hits;
      lastUse_[base + w] = ++useClock_;
      return true;
    }
  }
  return false;
}

bool CacheArray::access(PAddr pa) {
  const std::uint64_t lineAddr = pa / lineBytes_;
  const std::uint32_t set = static_cast<std::uint32_t>(lineAddr % sets_);
  const std::uint64_t tag = lineAddr / sets_;
  if (lookup(set, tag)) return true;
  ++stats_.accesses;
  ++stats_.misses;
  // Fill: the first invalid way, else the first least-recently-used.
  const std::size_t base = static_cast<std::size_t>(set) * ways_;
  std::size_t victim = base;
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (tags_[i] == kInvalid) {
      victim = i;
      break;
    }
    if (lastUse_[i] < lastUse_[victim]) victim = i;
  }
  tags_[victim] = tag;
  lastUse_[victim] = ++useClock_;
  return false;
}

std::uint64_t CacheArray::hitRun(PAddr pa, std::uint64_t stride,
                                 std::uint64_t n) {
  const std::uint64_t lineAddr = pa / lineBytes_;
  std::uint32_t set = static_cast<std::uint32_t>(lineAddr % sets_);
  std::uint64_t tag = lineAddr / sets_;
  // A step moves stride / lineBytes_ whole lines, plus one more when
  // the in-line offset carries past the line end.
  std::uint64_t off = pa - lineAddr * lineBytes_;
  const std::uint64_t lineStep = stride / lineBytes_;
  const std::uint64_t offStep = stride - lineStep * lineBytes_;
  const std::uint32_t setStep = static_cast<std::uint32_t>(lineStep % sets_);
  const std::uint64_t tagStep = lineStep / sets_;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!lookup(set, tag)) return i;
    off += offStep;
    set += setStep;
    tag += tagStep;
    if (off >= lineBytes_) {
      off -= lineBytes_;
      ++set;
    }
    if (set >= sets_) {
      set -= sets_;
      ++tag;
    }
  }
  return n;
}

void CacheArray::flushAll() {
  std::fill(tags_.begin(), tags_.end(), kInvalid);
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
