// Unit + property tests: CNK's static memory partitioner (paper §IV-C,
// Fig 3). The parameterized sweep checks the partition invariants over
// a grid of process counts and segment sizes.
#include <gtest/gtest.h>

#include <ostream>

#include "cnk/partitioner.hpp"

namespace bg::cnk {
namespace {

PartitionRequest baseRequest() {
  PartitionRequest req;
  req.physBase = 16ULL << 20;
  req.physSize = 464ULL << 20;
  req.processes = 1;
  req.textBytes = 1 << 20;
  req.dataBytes = 1 << 20;
  req.sharedBytes = 0;
  return req;
}

TEST(PickPageSize, PrefersSmallestThatFitsBudget) {
  EXPECT_EQ(pickPageSize(1 << 20, 8), hw::kPage1M);
  EXPECT_EQ(pickPageSize(8ULL << 20, 8), hw::kPage1M);
  EXPECT_EQ(pickPageSize(9ULL << 20, 8), hw::kPage16M);
  EXPECT_EQ(pickPageSize(128ULL << 20, 8), hw::kPage16M);
  EXPECT_EQ(pickPageSize(129ULL << 20, 8), hw::kPage256M);
  EXPECT_EQ(pickPageSize(2ULL << 30, 8), hw::kPage256M);
  EXPECT_EQ(pickPageSize(3ULL << 30, 8), hw::kPage1G);
  EXPECT_EQ(pickPageSize(0, 8), hw::kPage1M);  // empty fits anywhere
}

TEST(PickPageSize, ReturnsZeroWhenNothingFits) {
  // > 8 GB in one tile of 1GB pages with budget 8 fails.
  EXPECT_EQ(pickPageSize(9ULL << 30, 8), 0u);
}

TEST(Partitioner, BasicLayoutHasFourOrderedRegions) {
  auto req = baseRequest();
  req.sharedBytes = 4 << 20;
  const PartitionResult res = partitionMemory(req);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.procs.size(), 1u);
  const ProcLayout& l = res.procs[0];
  EXPECT_EQ(l.text.vbase, kTextVBase);
  EXPECT_GT(l.data.vbase, l.text.vbase);
  EXPECT_GT(l.heapStack.vbase, l.data.vbase);
  EXPECT_EQ(l.shared.vbase, kSharedVBase);
}

TEST(Partitioner, TextIsWritableByDesign) {
  // Lightweight philosophy: no memory protection (§IV-B2, Table II).
  const PartitionResult res = partitionMemory(baseRequest());
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.procs[0].text.perms & hw::kPermW, hw::kPermW);
  EXPECT_EQ(res.procs[0].text.perms & hw::kPermX, hw::kPermX);
}

TEST(Partitioner, RejectsBadProcessCounts) {
  auto req = baseRequest();
  req.processes = 0;
  EXPECT_FALSE(partitionMemory(req).ok);
  req.processes = 5;
  EXPECT_FALSE(partitionMemory(req).ok);
}

TEST(Partitioner, RejectsZeroMemory) {
  auto req = baseRequest();
  req.physSize = 0;
  EXPECT_FALSE(partitionMemory(req).ok);
}

TEST(Partitioner, SharedRegionIdenticalAcrossProcesses) {
  auto req = baseRequest();
  req.processes = 4;
  req.sharedBytes = 8 << 20;
  const PartitionResult res = partitionMemory(req);
  ASSERT_TRUE(res.ok) << res.error;
  for (const ProcLayout& l : res.procs) {
    EXPECT_EQ(l.shared.pbase, res.procs[0].shared.pbase);
    EXPECT_EQ(l.shared.vbase, res.procs[0].shared.vbase);
  }
}

TEST(Partitioner, WasteIsAccounted) {
  // Odd-sized text forces rounding waste (paper §VII-B: "the memory
  // subsystem may waste physical memory as large pages are tiled").
  auto req = baseRequest();
  req.textBytes = (1 << 20) + 1;
  const PartitionResult res = partitionMemory(req);
  ASSERT_TRUE(res.ok);
  EXPECT_GE(res.wastedBytes, (1ULL << 20) - 1);
}

TEST(Partitioner, TlbEntriesForExpandsTiles) {
  kernel::MemRegionDesc r;
  r.vbase = 0x10000000;
  r.pbase = 0x20000000;
  r.size = 3ULL << 20;
  r.perms = hw::kPermRW;
  r.pageSize = hw::kPage1M;
  const auto entries = tlbEntriesFor(r, 7);
  ASSERT_EQ(entries.size(), 3u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].pid, 7u);
    EXPECT_EQ(entries[i].vaddr, r.vbase + i * hw::kPage1M);
    EXPECT_EQ(entries[i].paddr, r.pbase + i * hw::kPage1M);
    EXPECT_TRUE(entries[i].valid);
  }
}

// ---- property sweep: invariants over process counts and sizes ----

struct SweepParam {
  int processes;
  std::uint64_t textMB;
  std::uint64_t dataMB;
  std::uint64_t sharedMB;
  std::uint64_t physMB;
};

// Names the sweep's test cases by value; without it gtest prints the
// struct's raw bytes, padding included, so case names vary per build.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "procs" << p.processes << "_text" << p.textMB << "M_data"
      << p.dataMB << "M_shared" << p.sharedMB << "M_phys" << p.physMB
      << "M";
}

class PartitionSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PartitionSweep, Invariants) {
  const SweepParam p = GetParam();
  PartitionRequest req;
  req.physBase = 16ULL << 20;
  req.physSize = p.physMB << 20;
  req.processes = p.processes;
  req.textBytes = p.textMB << 20;
  req.dataBytes = p.dataMB << 20;
  req.sharedBytes = p.sharedMB << 20;
  const PartitionResult res = partitionMemory(req);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.procs.size(), static_cast<std::size_t>(p.processes));

  // Invariant: the whole map fits the TLB budget.
  EXPECT_LE(res.tlbEntriesPerProcess, req.tlbBudget);
  // Invariant: physical use stays inside the window.
  EXPECT_LE(res.physUsed, req.physSize);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> physRanges;
  for (const ProcLayout& l : res.procs) {
    for (const kernel::MemRegionDesc* r :
         {&l.text, &l.data, &l.heapStack}) {
      ASSERT_GT(r->size, 0u);
      // Invariant: virtual and physical bases aligned to the page size.
      EXPECT_EQ(r->vbase % r->pageSize, 0u) << r->name;
      EXPECT_EQ(r->pbase % r->pageSize, 0u) << r->name;
      // Invariant: region sizes are whole pages.
      EXPECT_EQ(r->size % r->pageSize, 0u) << r->name;
      // Invariant: requested bytes are covered.
      physRanges.emplace_back(r->pbase, r->pbase + r->size);
    }
    EXPECT_GE(l.text.size, req.textBytes);
    EXPECT_GE(l.data.size, req.dataBytes);
    if (req.sharedBytes > 0) {
      EXPECT_GE(l.shared.size, req.sharedBytes);
    }
  }

  // Invariant: no two physical ranges overlap (shared excluded — it is
  // intentionally aliased).
  std::sort(physRanges.begin(), physRanges.end());
  for (std::size_t i = 1; i < physRanges.size(); ++i) {
    EXPECT_LE(physRanges[i - 1].second, physRanges[i].first);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PartitionSweep,
    ::testing::Values(SweepParam{1, 1, 1, 0, 464},
                      SweepParam{1, 1, 1, 16, 464},
                      SweepParam{2, 1, 2, 8, 464},
                      SweepParam{4, 1, 1, 4, 464},
                      SweepParam{4, 2, 4, 0, 464},
                      SweepParam{1, 16, 64, 0, 1024},
                      SweepParam{2, 8, 8, 32, 1024},
                      SweepParam{1, 1, 1, 0, 3500},
                      SweepParam{4, 1, 1, 16, 3500}));

}  // namespace
}  // namespace bg::cnk
