// Differential test of Core::memTouch's line-run path.
//
// memTouch charges the accesses that fall in one micro-TLB page as a
// run: one DAC check over the run's hull, one TLB hit per access, and
// an L1 hit run that hands each miss to the ordinary line-cost path.
// Twin nodes see the same seeded touches. One calls memTouch, the
// other the per-access dataAccess loop memTouch is defined by. After
// every touch the two must agree on cost, outcome, cache and TLB
// counters, bank conflicts, faults and machine-check syndromes; at the
// end a follow-up sweep must see the same hit/miss pattern in L1 and
// L3 on both, which shows their LRU state matches too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "hw/core.hpp"
#include "hw/mem_fault.hpp"
#include "hw/node.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace bg::hw {
namespace {

constexpr std::uint32_t kPid = 1;
constexpr VAddr kBase = 0x10000000;
constexpr std::uint64_t kRegion = 4ULL << 20;  // touched span of VA
constexpr PAddr kPhysBase = 0x2000000;

enum class Paging { kCnkLarge, kFwk4K };

struct FaultRecord {
  FaultKind kind;
  VAddr va;
  bool operator==(const FaultRecord&) const = default;
};

// The kernel side the core calls into. CNK-style paging maps the region
// with static 1 MB pages in shuffled physical order; FWK-style paging
// refills 4 KB pages on demand, scattered in physical memory, with
// every fifth page read-only. Addresses past the region stay unmapped.
class StubKernel final : public KernelIf {
 public:
  explicit StubKernel(Paging p) : paging_(p) {}

  void mapStatic(Mmu& mmu) const {
    if (paging_ != Paging::kCnkLarge) return;
    for (std::uint64_t i = 0; i < kRegion / kPage1M; ++i) {
      TlbEntry e;
      e.pid = kPid;
      e.vaddr = kBase + i * kPage1M;
      e.paddr = kPhysBase + ((i * 3) % 4) * kPage1M;
      e.size = kPage1M;
      e.perms = kPermRW;
      e.valid = true;
      mmu.install(e);
    }
  }

  HandlerResult syscall(Core&, ThreadCtx&, const SyscallArgs&) override {
    return HandlerResult::done(0, 0);
  }
  HandlerResult onTlbMiss(Core& core, ThreadCtx&, VAddr va,
                          Access) override {
    const std::uint64_t page = (va - kBase) / kPage4K;
    if (paging_ == Paging::kCnkLarge || va < kBase ||
        page >= kRegion / kPage4K) {
      return HandlerResult::done(0, 40);  // nothing installed: SEGV
    }
    TlbEntry e;
    e.pid = kPid;
    e.vaddr = kBase + page * kPage4K;
    e.paddr = kPhysBase + ((page * 97) % 4096) * kPage4K;
    e.size = kPage4K;
    e.perms = page % 5 == 3 ? kPermRX : kPermRW;
    e.valid = true;
    core.mmu().install(e);
    return HandlerResult::done(0, 25);
  }
  sim::Cycle onFault(Core&, ThreadCtx&, FaultKind kind, VAddr va) override {
    faults.push_back({kind, va});
    return 100;
  }
  HandlerResult onInterrupt(Core&, Irq) override {
    return HandlerResult::done(0, 0);
  }
  ThreadCtx* pickNext(Core&) override { return nullptr; }
  void onThreadHalt(Core&, ThreadCtx&) override {}
  sim::Cycle contextSwitchCost() const override { return 0; }

  std::vector<FaultRecord> faults;

 private:
  Paging paging_;
};

struct Twin {
  Twin(Paging p, const MemFaultRates& rates)
      : faults(7, "mem-faults"), kernel(p), node(engine, 0, config()) {
    faults.attachNodes(1);
    faults.setRates(rates);
    node.attachMemFaults(&faults);
    node.attachKernel(&kernel);
    kernel.mapStatic(core().mmu());
    thread.pid = kPid;
  }
  static NodeConfig config() {
    NodeConfig cfg;
    cfg.cores = 1;
    return cfg;
  }
  Core& core() { return node.core(0); }

  sim::Engine engine;
  MemFaultModel faults;
  StubKernel kernel;
  Node node;
  ThreadCtx thread;
};

// memTouch as one dataAccess per access: the definition the run path
// must reproduce.
Core::TouchOutcome touchPerAccess(Core& core, ThreadCtx& t, VAddr va,
                                  std::uint32_t bytes, std::uint32_t stride,
                                  bool write) {
  Core::TouchOutcome out;
  const std::uint64_t step = stride == 0 ? core.l1().lineBytes() : stride;
  const Access acc = write ? Access::kWrite : Access::kRead;
  for (VAddr cur = va; cur < va + bytes; cur += step) {
    const Core::AccessOutcome a = core.dataAccess(
        t, cur, static_cast<std::uint32_t>(std::min<std::uint64_t>(step, 8)),
        acc);
    out.cost += a.cost;
    if (!a.ok) return out;
  }
  out.ok = true;
  return out;
}

std::vector<McSyndrome> drainMc(Node& n) {
  std::vector<McSyndrome> out;
  McSyndrome s;
  while (n.takeMc(&s)) out.push_back(s);
  return out;
}

// Returns how many parity syndromes the touch latched.
int expectSameState(Twin& a, Twin& b, int touch) {
  SCOPED_TRACE(testing::Message() << "after touch " << touch);
  const CacheStats& l1a = a.core().l1().stats();
  const CacheStats& l1b = b.core().l1().stats();
  EXPECT_EQ(l1a.accesses, l1b.accesses);
  EXPECT_EQ(l1a.hits, l1b.hits);
  EXPECT_EQ(l1a.misses, l1b.misses);
  const CacheStats& l3a = a.node.l3().stats();
  const CacheStats& l3b = b.node.l3().stats();
  EXPECT_EQ(l3a.accesses, l3b.accesses);
  EXPECT_EQ(l3a.hits, l3b.hits);
  EXPECT_EQ(l3a.misses, l3b.misses);
  EXPECT_EQ(a.node.l3().bankConflicts(), b.node.l3().bankConflicts());
  EXPECT_EQ(a.node.l3().bankAccesses(), b.node.l3().bankAccesses());
  EXPECT_EQ(a.core().mmu().hitCount(), b.core().mmu().hitCount());
  EXPECT_EQ(a.core().mmu().missCount(), b.core().mmu().missCount());
  EXPECT_EQ(a.kernel.faults, b.kernel.faults);
  const std::vector<McSyndrome> mca = drainMc(a.node);
  const std::vector<McSyndrome> mcb = drainMc(b.node);
  EXPECT_EQ(mca.size(), mcb.size());
  int parity = 0;
  for (std::size_t i = 0; i < std::min(mca.size(), mcb.size()); ++i) {
    EXPECT_EQ(mca[i].kind, mcb[i].kind);
    EXPECT_EQ(mca[i].paddr, mcb[i].paddr);
    EXPECT_EQ(mca[i].core, mcb[i].core);
    if (mca[i].kind == McSyndrome::Kind::kParity) ++parity;
  }
  EXPECT_EQ(a.faults.rngDraws(), b.faults.rngDraws());
  return parity;
}

// Follow-up sweep: the same addresses must hit and miss alike on both
// twins, in L1 and in L3.
void expectSameLruState(Twin& a, Twin& b) {
  for (PAddr pa = kPhysBase; pa < kPhysBase + (4ULL << 20); pa += 32 * 37) {
    ASSERT_EQ(a.core().l1().access(pa), b.core().l1().access(pa))
        << "L1 at pa=0x" << std::hex << pa;
    ASSERT_EQ(a.node.l3().access(pa, 0).hit, b.node.l3().access(pa, 0).hit)
        << "L3 at pa=0x" << std::hex << pa;
  }
}

struct Scenario {
  Paging paging;
  MemFaultRates rates;
  std::uint64_t seed;
};

// What a scenario reached, so a caller can see its cases were hit.
struct Reached {
  int dacFaults = 0;         // touches that took at least one DAC fault
  int paritySyndromes = 0;
};

// Runs `touches` seeded touches on both twins and checks them after
// each.
Reached runScenario(const Scenario& sc, int touches) {
  Twin run(sc.paging, sc.rates);
  Twin ref(sc.paging, sc.rates);
  sim::Rng rng(sc.seed, "memtouch-diff");
  constexpr std::uint32_t kStrides[] = {0, 8, 24, 32, 48, 64, 4096};
  Reached reached;
  for (int i = 0; i < touches; ++i) {
    const std::uint32_t stride = kStrides[rng.nextBelow(std::size(kStrides))];
    const std::uint64_t step =
        stride == 0 ? run.core().l1().lineBytes() : stride;
    const std::uint32_t bytes =
        static_cast<std::uint32_t>(1 + 2 * rng.nextBelow(stride == 4096
                                                             ? 40'000
                                                             : 6'000));
    const VAddr va = kBase + rng.nextBelow(kRegion - bytes - 8);
    const bool write = rng.nextBelow(2) == 0;

    // DAC: off, or on the hull's first byte, last byte, or inside it.
    const std::uint64_t n = (bytes - 1) / step + 1;
    const VAddr hullEnd =
        va + (n - 1) * step + std::min<std::uint64_t>(step, 8);
    DacRange dac;
    switch (rng.nextBelow(5)) {
      case 0:
        dac = DacRange{true, va, va + 1, true, true};
        break;
      case 1:
        dac = DacRange{true, hullEnd - 1, hullEnd, true, true};
        break;
      case 2: {
        const VAddr mid = va + rng.nextBelow(hullEnd - va);
        dac = DacRange{true, mid, mid + 1 + rng.nextBelow(64), !write, true};
        break;
      }
      default:
        break;  // disabled
    }
    run.core().mmu().dac(0) = dac;
    ref.core().mmu().dac(0) = dac;

    if (rng.nextBelow(16) == 0) {
      run.core().flushCaches();
      ref.core().flushCaches();
      run.node.l3().flushAll();
      ref.node.l3().flushAll();
    }
    // Move the clock so L3 bank windows and DDR refresh see new times.
    const sim::Cycle at = run.engine.now() + rng.nextBelow(3'000);
    run.engine.runUntil(at);
    ref.engine.runUntil(at);

    const std::size_t faultsBefore = ref.kernel.faults.size();
    const Core::TouchOutcome o =
        run.core().memTouch(run.thread, va, bytes, stride, write);
    const Core::TouchOutcome r =
        touchPerAccess(ref.core(), ref.thread, va, bytes, stride, write);
    SCOPED_TRACE(testing::Message()
                 << "touch " << i << " va=0x" << std::hex << va << std::dec
                 << " bytes=" << bytes << " stride=" << stride);
    EXPECT_EQ(o.cost, r.cost);
    EXPECT_EQ(o.ok, r.ok);
    reached.paritySyndromes += expectSameState(run, ref, i);
    for (std::size_t f = faultsBefore; f < ref.kernel.faults.size(); ++f) {
      if (ref.kernel.faults[f].kind == FaultKind::kDacHit) {
        ++reached.dacFaults;
        break;
      }
    }
    if (testing::Test::HasFailure()) return reached;
  }

  expectSameLruState(run, ref);
  return reached;
}

TEST(MemTouchRuns, CnkLargePagesMatchPerAccessLoop) {
  EXPECT_GT(runScenario({Paging::kCnkLarge, {}, 1}, 400).dacFaults, 0);
}

TEST(MemTouchRuns, Fwk4KPagesAcrossPageBoundariesMatchPerAccessLoop) {
  EXPECT_GT(runScenario({Paging::kFwk4K, {}, 2}, 400).dacFaults, 0);
}

TEST(MemTouchRuns, ParityArmedMatchesPerAccessLoop) {
  // Parity alone keeps the run path: each fill judges in order.
  MemFaultRates rates;
  rates.parityRate = 0.02;
  for (const Scenario& sc : {Scenario{Paging::kCnkLarge, rates, 3},
                             Scenario{Paging::kFwk4K, rates, 7}}) {
    const Reached r = runScenario(sc, 150);
    EXPECT_GT(r.dacFaults, 0);
    EXPECT_GT(r.paritySyndromes, 0);
  }
}

TEST(MemTouchRuns, EccArmedMatchesPerAccessLoop) {
  // An uncorrectable error stops the touch on the faulting access, so
  // the UE rate is high enough for several to land mid-touch.
  MemFaultRates rates;
  rates.ceRate = 0.05;
  rates.ueRate = 0.02;
  EXPECT_GT(runScenario({Paging::kCnkLarge, rates, 4}, 150).dacFaults, 0);
  EXPECT_GT(runScenario({Paging::kFwk4K, rates, 5}, 150).dacFaults, 0);
}

TEST(MemTouchRuns, ParityAndEccArmedMatchPerAccessLoop) {
  MemFaultRates rates;
  rates.parityRate = 0.01;
  rates.ceRate = 0.02;
  rates.ueRate = 0.005;
  EXPECT_GT(runScenario({Paging::kFwk4K, rates, 6}, 150).dacFaults, 0);
}

}  // namespace
}  // namespace bg::hw
