// Unit tests: physical memory, MMU/TLB/DAC, caches, DDR refresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/cache.hpp"
#include "hw/ddr.hpp"
#include "hw/mmu.hpp"
#include "hw/phys_mem.hpp"

namespace bg::hw {
namespace {

// ---------------- PhysMem ----------------

TEST(PhysMem, RoundTripsBytes) {
  PhysMem m(1 << 20);
  const std::uint8_t raw[] = {1, 2, 3, 4, 5};
  m.write(100, std::as_bytes(std::span(raw)));
  std::uint8_t out[5] = {};
  m.read(100, std::as_writable_bytes(std::span(out)));
  EXPECT_TRUE(std::equal(std::begin(raw), std::end(raw), std::begin(out)));
}

TEST(PhysMem, UntouchedMemoryReadsZero) {
  PhysMem m(1 << 20);
  EXPECT_EQ(m.read64(0x8000), 0u);
  EXPECT_EQ(m.framesTouched(), 0u);
}

TEST(PhysMem, CrossFrameAccess) {
  PhysMem m(1 << 20);
  const PAddr addr = PhysMem::kFrameSize - 4;
  m.write64(addr, 0x1122334455667788ULL);
  EXPECT_EQ(m.read64(addr), 0x1122334455667788ULL);
  EXPECT_EQ(m.framesTouched(), 2u);
}

TEST(PhysMem, OutOfRangeThrows) {
  PhysMem m(4096);
  EXPECT_THROW(m.write64(4094, 1), std::out_of_range);
}

TEST(PhysMem, SelfRefreshBlocksAccessButPreservesContents) {
  PhysMem m(1 << 20);
  m.write64(64, 42);
  m.enterSelfRefresh();
  EXPECT_THROW(m.read64(64), std::runtime_error);
  m.exitSelfRefresh();
  EXPECT_EQ(m.read64(64), 42u);
}

TEST(PhysMem, HashMatchesForEqualContents) {
  PhysMem a(1 << 20), b(1 << 20);
  a.write64(128, 7);
  b.write64(128, 7);
  EXPECT_EQ(a.hashRange(0, 4096), b.hashRange(0, 4096));
  b.write64(200, 9);
  EXPECT_NE(a.hashRange(0, 4096), b.hashRange(0, 4096));
}

TEST(PhysMem, HashOfUntouchedEqualsHashOfZeroed) {
  PhysMem a(1 << 20), b(1 << 20);
  b.write64(64, 1);
  b.zero(64, 8);
  EXPECT_EQ(a.hashRange(0, 1024), b.hashRange(0, 1024));
}

TEST(PhysMem, ZeroClearsRange) {
  PhysMem m(1 << 20);
  m.write64(0, ~0ULL);
  m.zero(0, 8);
  EXPECT_EQ(m.read64(0), 0u);
}

// ---------------- Mmu / TLB / DAC ----------------

TlbEntry entry(std::uint32_t pid, VAddr va, PAddr pa, std::uint64_t size,
               std::uint8_t perms) {
  TlbEntry e;
  e.pid = pid;
  e.vaddr = va;
  e.paddr = pa;
  e.size = size;
  e.perms = perms;
  e.valid = true;
  return e;
}

TEST(Mmu, MissWithoutEntries) {
  Mmu mmu(4);
  Translation t;
  EXPECT_EQ(mmu.translate(1, 0x1000, Access::kRead, &t), TlbResult::kMiss);
  EXPECT_EQ(mmu.missCount(), 1u);
}

TEST(Mmu, HitTranslatesWithOffset) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x100000, 0x500000, kPage1M, kPermRW));
  Translation t;
  ASSERT_EQ(mmu.translate(1, 0x100040, Access::kRead, &t),
            TlbResult::kHit);
  EXPECT_EQ(t.paddr, 0x500040u);
}

TEST(Mmu, PidMismatchMisses) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x100000, 0x500000, kPage1M, kPermRW));
  Translation t;
  EXPECT_EQ(mmu.translate(2, 0x100000, Access::kRead, &t),
            TlbResult::kMiss);
}

TEST(Mmu, PermFaultOnWriteToReadOnly) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x100000, 0x500000, kPage1M, kPermRX));
  Translation t;
  EXPECT_EQ(mmu.translate(1, 0x100000, Access::kWrite, &t),
            TlbResult::kPermFault);
  EXPECT_EQ(mmu.translate(1, 0x100000, Access::kExec, &t),
            TlbResult::kHit);
  // The hit cached the page in the micro-TLB; a write still faults and
  // counts neither a hit nor a miss.
  EXPECT_EQ(mmu.translate(1, 0x100040, Access::kWrite, &t),
            TlbResult::kPermFault);
  EXPECT_EQ(mmu.hitCount(), 1u);
  EXPECT_EQ(mmu.missCount(), 0u);
}

TEST(Mmu, ReinstallSamePageReplaces) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x100000, 0x500000, kPage1M, kPermRW));
  mmu.install(entry(1, 0x100000, 0x700000, kPage1M, kPermRW));
  EXPECT_EQ(mmu.validCount(), 1);
  Translation t;
  mmu.translate(1, 0x100000, Access::kRead, &t);
  EXPECT_EQ(t.paddr, 0x700000u);
}

TEST(Mmu, EvictsRoundRobinWhenFull) {
  Mmu mmu(2);
  mmu.install(entry(1, 0x100000, 0x100000, kPage1M, kPermRW));
  mmu.install(entry(1, 0x200000, 0x200000, kPage1M, kPermRW));
  mmu.install(entry(1, 0x300000, 0x300000, kPage1M, kPermRW));
  EXPECT_EQ(mmu.validCount(), 2);
  // First entry was the round-robin victim.
  EXPECT_FALSE(mmu.probe(1, 0x100000).has_value());
  EXPECT_TRUE(mmu.probe(1, 0x300000).has_value());
}

TEST(Mmu, InvalidateByPid) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x100000, 0x100000, kPage1M, kPermRW));
  mmu.install(entry(2, 0x100000, 0x200000, kPage1M, kPermRW));
  mmu.invalidate(1);
  EXPECT_FALSE(mmu.probe(1, 0x100000).has_value());
  EXPECT_TRUE(mmu.probe(2, 0x100000).has_value());
  mmu.invalidate();
  EXPECT_EQ(mmu.validCount(), 0);
}

TEST(Mmu, VariablePageSizesCoexist) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x00100000, 0x00100000, kPage1M, kPermRW));
  mmu.install(entry(1, 0x10000000, 0x10000000, kPage256M, kPermRW));
  EXPECT_TRUE(mmu.probe(1, 0x1FFFFFFF).has_value());
  EXPECT_TRUE(mmu.probe(1, 0x001FFFFF).has_value());
  EXPECT_FALSE(mmu.probe(1, 0x00200000).has_value());
}

TEST(Dac, MatchesOnlyEnabledRangesAndAccessKinds) {
  Mmu mmu(4);
  DacRange& d = mmu.dac(0);
  d.enabled = true;
  d.lo = 0x1000;
  d.hi = 0x2000;
  d.onRead = false;
  EXPECT_TRUE(mmu.dacMatches(0x1800, 8, Access::kWrite));
  EXPECT_FALSE(mmu.dacMatches(0x1800, 8, Access::kRead));
  EXPECT_FALSE(mmu.dacMatches(0x2000, 8, Access::kWrite));
  // Straddling the low edge still matches.
  EXPECT_TRUE(mmu.dacMatches(0x0FFC, 8, Access::kWrite));
}

// ---------------- Caches ----------------

TEST(CacheArray, MissesThenHits) {
  CacheArray c(1024, 32, 2);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(16));  // same line
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().hits, 2u);
}

TEST(CacheArray, LruEvictsOldest) {
  // 2-way, line 32, 1024 bytes -> 16 sets. Addresses 0, 16*32=512... use
  // same-set addresses: stride = sets*line = 512.
  CacheArray c(1024, 32, 2);
  c.access(0);
  c.access(512);
  c.access(0);      // refresh 0
  c.access(1024);   // evicts 512 (LRU)
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(512));
}

TEST(CacheArray, FlushInvalidatesEverything) {
  CacheArray c(1024, 32, 2);
  c.access(0);
  c.flushAll();
  EXPECT_FALSE(c.access(0));
}

TEST(CacheArray, EvictionSequenceAcrossAFlushIsPinned) {
  // 4 sets x 2 ways; lines 0/4/8 share set 0 and 1/5/9 share set 1, so
  // every third distinct line evicts. The hit/miss string pins victim
  // choice (first invalid way, else first least-recently-used), the LRU
  // stamps and the flush.
  CacheArray c(256, 32, 2);
  const unsigned lines[] = {0, 4, 0, 8, 4, 0, 4, 8, 8, 1, 5, 1, 9, 1, 5, 0,
                            4, 4, 8, 1, 9, 5, 9, 0, 4, 0, 8, 4, 1, 5, 1, 9};
  std::string pattern;
  for (std::size_t i = 0; i < std::size(lines); ++i) {
    if (i == 16) c.flushAll();
    pattern += c.access(lines[i] * 32 + (lines[i] % 3) * 8) ? 'H' : 'M';
  }
  EXPECT_EQ(pattern, "MMHMMMHMHMMHMHMMMHMMMMHMMHMMMMHM");
  EXPECT_EQ(c.stats().accesses, 32u);
  EXPECT_EQ(c.stats().hits, 9u);
  EXPECT_EQ(c.stats().misses, 23u);
}

TEST(CacheArray, HitRunMatchesSingleAccesses) {
  // A hit run must leave stats and LRU state exactly as the same
  // accesses one by one; a miss ends the run and is left to access().
  // Strides cover same-line steps, steps that carry the in-line offset,
  // whole lines, and one that wraps the set index several times.
  for (const std::uint64_t stride : {0ULL, 8ULL, 24ULL, 32ULL, 48ULL, 64ULL,
                                     4096ULL, 12'352ULL}) {
    SCOPED_TRACE(testing::Message() << "stride " << stride);
    CacheArray run(4096, 32, 4);  // 32 sets
    CacheArray ref(4096, 32, 4);
    std::uint64_t seed = stride + 1;
    for (int round = 0; round < 60; ++round) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const PAddr pa = (seed >> 20) % (64 << 10);
      const std::uint64_t n = 1 + (seed >> 50) % 40;
      for (std::uint64_t i = 0; i < n;) {
        const std::uint64_t hits = run.hitRun(pa + i * stride, stride, n - i);
        for (std::uint64_t k = 0; k < hits; ++k) {
          ASSERT_TRUE(ref.access(pa + (i + k) * stride));
        }
        i += hits;
        if (i < n) {
          ASSERT_FALSE(ref.access(pa + i * stride));
          ASSERT_FALSE(run.access(pa + i * stride));
          ++i;
        }
      }
      if (round == 30) {
        run.flushAll();
        ref.flushAll();
      }
    }
    EXPECT_EQ(run.stats().accesses, ref.stats().accesses);
    EXPECT_EQ(run.stats().hits, ref.stats().hits);
    EXPECT_EQ(run.stats().misses, ref.stats().misses);
    for (PAddr pa = 0; pa < (64 << 10); pa += 32 * 3) {
      ASSERT_EQ(run.access(pa), ref.access(pa)) << "pa " << pa;
    }
  }
}

TEST(CacheArray, RejectsWideTagsAndMoreThan255Ways) {
  // Ages are one byte each and tags four, so both limits are hard
  // errors rather than silent aliasing.
  EXPECT_THROW(CacheArray(256 * 32, 32, 256), std::invalid_argument);
  EXPECT_THROW(CacheArray(32, 32, 0), std::invalid_argument);
  EXPECT_NO_THROW(CacheArray(255 * 32, 32, 255));
  // One set of 32 B lines: the tag is pa / 32. All-ones marks an
  // invalid way, so the largest tag is 0xFFFFFFFE.
  CacheArray c(2 * 32, 32, 2);
  const PAddr last = PAddr{0xFFFFFFFE} * 32;
  EXPECT_FALSE(c.access(last));
  EXPECT_TRUE(c.access(last + 31));
  EXPECT_THROW(c.access(last + 32), std::out_of_range);
  EXPECT_THROW(c.access(PAddr{1} << 48), std::out_of_range);
  // A run ends before the first out-of-range tag; access() rejects it.
  EXPECT_EQ(c.hitRun(last, 32, 3), 1u);
  EXPECT_EQ(c.stats().accesses, 3u);
}

// Reference LRU model for the differential test below: a u64 tag and a
// u64 last-use stamp per way, victim = first invalid way, else the
// least recently used. It is deliberately the plainest exact LRU, kept
// apart from CacheArray's compact encoding.
class RefLru {
 public:
  RefLru(std::uint64_t sizeBytes, std::uint32_t lineBytes, std::uint32_t ways)
      : lineBytes_(lineBytes),
        ways_(ways),
        sets_(static_cast<std::uint32_t>(sizeBytes / lineBytes / ways)),
        tags_(static_cast<std::size_t>(sets_) * ways_, kInvalid),
        lastUse_(tags_.size(), 0) {}

  bool access(PAddr pa) {
    const std::uint64_t line = pa / lineBytes_;
    const std::uint32_t set = static_cast<std::uint32_t>(line % sets_);
    const std::uint64_t tag = line / sets_;
    if (lookup(set, tag)) return true;
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
    lastUse_[victim] = ++clock_;
    return false;
  }

  // One lookup per step, with no fill: the semantics of
  // CacheArray::hitRun without its incremental set/tag walk.
  std::uint64_t hitRun(PAddr pa, std::uint64_t stride, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t line = (pa + i * stride) / lineBytes_;
      if (!lookup(static_cast<std::uint32_t>(line % sets_), line / sets_)) {
        return i;
      }
    }
    return n;
  }

  void flushAll() { std::fill(tags_.begin(), tags_.end(), kInvalid); }

 private:
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

  bool lookup(std::uint32_t set, std::uint64_t tag) {
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == tag) {
        lastUse_[base + w] = ++clock_;
        return true;
      }
    }
    return false;
  }

  std::uint32_t lineBytes_;
  std::uint32_t ways_;
  std::uint32_t sets_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lastUse_;
  std::uint64_t clock_ = 0;
};

TEST(CacheArray, MatchesReferenceLruOnRandomAndStridedStreams) {
  // 16 sets of 32 B lines at every associativity; addresses span eight
  // cache sizes so sets overflow and evict. Each round is a random or a
  // strided burst, issued as single accesses or as hitRun() runs whose
  // miss goes to access(); the arrays are flushed twice mid-stream.
  constexpr std::uint32_t kLine = 32;
  constexpr std::uint32_t kSets = 16;
  for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u}) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      SCOPED_TRACE(testing::Message() << "ways " << ways << " seed " << seed);
      const std::uint64_t size = std::uint64_t{kLine} * kSets * ways;
      const std::uint64_t span = size * 8;
      CacheArray dut(size, kLine, ways);
      RefLru ref(size, kLine, ways);
      std::uint64_t s = seed;
      auto next = [&s] {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 17;
      };
      std::uint64_t accesses = 0;
      for (int round = 0; round < 400; ++round) {
        if (round == 150 || round == 320) {
          dut.flushAll();
          ref.flushAll();
        }
        if (round % 50 == 25) {
          // Hot set: touch line 0 of one set, hit its other ways 600
          // times, then fill line `ways` and re-touch line 0. Line 0
          // stays the LRU way through more hits than a byte counts.
          const PAddr set0 = (next() % kSets) * kLine;
          const std::uint64_t first = next() % 8;
          auto line = [&](std::uint64_t k) {
            return PAddr{(set0 + (first + k) * kLine * kSets) % span};
          };
          for (int k = 0; k < 603; ++k, ++accesses) {
            const std::uint64_t pick =
                k == 0     ? 0
                : k == 601 ? ways
                : k == 602 ? 0
                           : 1 + next() % std::max(ways - 1, 1u);
            ASSERT_EQ(dut.access(line(pick)), ref.access(line(pick)))
                << "round " << round << " hot access " << k;
          }
          continue;
        }
        const std::uint64_t pick = next();
        const PAddr base = next() % span;
        const std::uint64_t n = 1 + next() % 48;
        // Strides: same line, odd bytes, whole lines, one set apart
        // (every step lands in the same set), and random.
        const std::uint64_t strides[] = {0, 8, 40, kLine, 3 * kLine,
                                         std::uint64_t{kLine} * kSets,
                                         next() % (2 * size)};
        const bool random = pick % 4 == 0;
        const std::uint64_t stride = strides[(pick >> 2) % std::size(strides)];
        auto addr = [&](std::uint64_t i) {
          return random ? PAddr{next() % span}
                        : PAddr{(base + i * stride) % span};
        };
        if (random || (pick >> 8) % 2 == 0) {
          for (std::uint64_t i = 0; i < n; ++i, ++accesses) {
            const PAddr pa = addr(i);
            ASSERT_EQ(dut.access(pa), ref.access(pa))
                << "round " << round << " access " << i << " pa " << pa;
          }
          continue;
        }
        // hitRun mixed with access: keep the walk inside the span.
        const std::uint64_t steps =
            stride == 0 ? n : std::min(n, (span - 1 - base) / stride + 1);
        for (std::uint64_t i = 0; i < steps;) {
          const std::uint64_t hits =
              dut.hitRun(base + i * stride, stride, steps - i);
          ASSERT_EQ(hits, ref.hitRun(base + i * stride, stride, steps - i))
              << "round " << round << " step " << i;
          i += hits;
          accesses += hits;
          if (i < steps) {
            ASSERT_FALSE(dut.access(base + i * stride));
            ASSERT_FALSE(ref.access(base + i * stride));
            ++i;
            ++accesses;
          }
        }
      }
      EXPECT_EQ(dut.stats().accesses, accesses);
      // Same final contents: a one-step hitRun fills nothing, so it
      // tells whether a line is resident without changing which lines
      // are. It does refresh recency, identically on both sides; the
      // closing sweep then checks that the LRU order agrees too.
      for (PAddr pa = 0; pa < span; pa += kLine) {
        ASSERT_EQ(dut.hitRun(pa, 0, 1), ref.hitRun(pa, 0, 1)) << "pa " << pa;
      }
      for (PAddr pa = 0; pa < span; pa += kLine * 5) {
        ASSERT_EQ(dut.access(pa), ref.access(pa)) << "sweep pa " << pa;
      }
    }
  }
}

TEST(SharedCache, BankMappingPoliciesDiffer) {
  SharedCacheConfig cfg;
  cfg.banks = 4;
  cfg.bankMap = BankMap::kHighBits;
  SharedCache high(cfg);
  // Sequential traffic within 4MB lands in one bank under kHighBits.
  std::uint32_t firstBank = high.bankOf(0);
  for (PAddr a = 0; a < (1 << 20); a += 128) {
    EXPECT_EQ(high.bankOf(a), firstBank);
  }
  cfg.bankMap = BankMap::kDirect;
  SharedCache direct(cfg);
  EXPECT_NE(direct.bankOf(0), direct.bankOf(128));
}

TEST(SharedCache, ConflictStallsWhenBankBusy) {
  SharedCacheConfig cfg;
  cfg.banks = 1;
  cfg.bankBusy = 10;
  SharedCache c(cfg);
  auto r1 = c.access(0, 100);
  EXPECT_EQ(r1.extraStall, 0u);
  auto r2 = c.access(4096, 105);  // bank busy until 110
  EXPECT_EQ(r2.extraStall, 5u);
  EXPECT_EQ(c.bankConflicts(), 1u);
}

TEST(SharedCache, XorFoldSpreadsPowerOfTwoStrides) {
  SharedCacheConfig cfg;
  cfg.banks = 4;
  cfg.bankMap = BankMap::kXorFold;
  SharedCache c(cfg);
  for (PAddr a = 0; a < (4 << 20); a += 4096) c.access(a, 0);
  const auto& loads = c.bankAccesses();
  const std::uint64_t total = loads[0] + loads[1] + loads[2] + loads[3];
  for (std::uint64_t l : loads) {
    EXPECT_GT(l, total / 8);  // no bank starved
  }
}

// ---------------- DDR ----------------

TEST(Ddr, RefreshAddsDeterministicStall) {
  Ddr d;
  // At the start of a refresh window the full duration stalls.
  EXPECT_EQ(d.accessLatency(0), kDdrAccessLatency + kDdrRefreshDuration);
  // Past the window, no stall.
  EXPECT_EQ(d.accessLatency(kDdrRefreshDuration), kDdrAccessLatency);
  // Phase repeats every interval.
  EXPECT_EQ(d.accessLatency(kDdrRefreshInterval), d.accessLatency(0));
}

}  // namespace
}  // namespace bg::hw
