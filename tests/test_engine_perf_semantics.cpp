// Ordering and cancellation semantics of the two-tier event engine
// (calendar ring + far-future heap). The engine's total order by
// (time, scheduling sequence) is the foundation of every determinism
// witness in the repo, so these tests pin the behaviours a scheduler
// rewrite could silently change: FIFO among same-cycle events even
// when they arrive via different tiers, cancellation during dispatch,
// scheduling from a handler into the bucket being drained, and the
// schedule hashes of a small boot+jobstream run and of the 120-job
// zero-fault stream (golden values).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/app.hpp"
#include "sim/engine.hpp"
#include "sim/hash.hpp"
#include "sim/rng.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace bg {
namespace {

// --- Same-cycle FIFO across tiers ---------------------------------------

TEST(EngineOrder, SameCycleFifoAcrossTiers) {
  sim::Engine e;
  std::vector<std::string> order;
  // Cycle 1000 is far future at schedule time: these two go to the
  // heap tier, in this order.
  e.scheduleAt(1000, [&] { order.push_back("heap1"); });
  e.scheduleAt(1000, [&] { order.push_back("heap2"); });
  // This handler runs at 998, when 1000 is inside the near-future
  // ring window: its event lands in the ring tier.
  e.scheduleAt(998, [&] {
    e.scheduleAt(1000, [&] { order.push_back("ring1"); });
  });
  e.run();
  EXPECT_EQ(e.now(), 1000u);
  // FIFO by scheduling order within the cycle, regardless of tier.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "heap1");
  EXPECT_EQ(order[1], "heap2");
  EXPECT_EQ(order[2], "ring1");
}

TEST(EngineOrder, HeapEventsMigrateInTimeOrder) {
  sim::Engine e;
  std::vector<int> order;
  // All far future, scheduled out of time order.
  e.scheduleAt(5000, [&] { order.push_back(3); });
  e.scheduleAt(3000, [&] { order.push_back(1); });
  e.scheduleAt(3001, [&] { order.push_back(2); });
  e.scheduleAt(9000, [&] { order.push_back(4); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(e.now(), 9000u);
}

// --- Cancellation -------------------------------------------------------

TEST(EngineCancel, CancelDuringDispatchOfSameCycle) {
  sim::Engine e;
  bool secondRan = false;
  sim::EventId second = 0;
  e.schedule(10, [&] { e.cancel(second); });
  second = e.schedule(10, [&] { secondRan = true; });
  e.run();
  EXPECT_FALSE(secondRan);
  EXPECT_EQ(e.pendingEvents(), 0u);
  EXPECT_EQ(e.eventsProcessed(), 1u);
}

TEST(EngineCancel, StaleAndBogusHandlesAreNoOps) {
  sim::Engine e;
  int fired = 0;
  const sim::EventId id = e.schedule(5, [&] { ++fired; });
  ASSERT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  // Cancelling an already-fired handle must not disturb the count.
  e.cancel(id);
  e.cancel(0);
  e.cancel(0xdeadbeefdeadbeefULL);
  EXPECT_EQ(e.pendingEvents(), 0u);

  // Double-cancel of a live handle decrements exactly once.
  const sim::EventId a = e.schedule(5, [] {});
  e.schedule(6, [] {});
  EXPECT_EQ(e.pendingEvents(), 2u);
  e.cancel(a);
  e.cancel(a);
  EXPECT_EQ(e.pendingEvents(), 1u);
  e.run();
  EXPECT_EQ(e.pendingEvents(), 0u);
}

TEST(EngineCancel, FarFutureChurnLeavesNoResidue) {
  // The decrementer re-arm pattern that leaked tombstones in the old
  // engine: schedule far future, cancel immediately, thousands of
  // times. The pending count must stay exact and the queue must drain
  // without dispatching any cancelled event.
  sim::Engine e;
  for (int i = 0; i < 10'000; ++i) {
    e.cancel(e.schedule(1'000'000 + i, [] { FAIL() << "cancelled fired"; }));
  }
  EXPECT_EQ(e.pendingEvents(), 0u);
  bool ran = false;
  e.schedule(2'000'000, [&] { ran = true; });
  EXPECT_EQ(e.pendingEvents(), 1u);
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.eventsProcessed(), 1u);
}

// --- Scheduling from handlers -------------------------------------------

TEST(EngineReentry, ScheduleIntoCurrentBucketFromHandler) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule(100, [&] {
    order.push_back(1);
    // Delay 0: same cycle, must fire after the handlers already queued
    // for this cycle (it has the newest sequence number).
    e.schedule(0, [&] { order.push_back(3); });
  });
  e.schedule(100, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 100u);
}

TEST(EngineReentry, RunUntilThenScheduleNear) {
  // Regression guard for window handling: advancing the clock past the
  // ring window without dispatching (empty runUntil) must not corrupt
  // bucket indexing for later near-future events.
  sim::Engine e;
  e.runUntil(100'000);
  EXPECT_EQ(e.now(), 100'000u);
  std::vector<int> order;
  e.schedule(3, [&] { order.push_back(1); });
  e.schedule(300, [&] { order.push_back(2); });  // beyond one window
  e.schedule(3, [&] {
    order.push_back(-1);
    e.schedule(1, [&] { order.push_back(-2); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, -1, -2, 2}));
  EXPECT_EQ(e.now(), 100'300u);
}

// --- Pre-registered tasks ------------------------------------------------

struct RecordingTask final : sim::Task {
  RecordingTask(std::vector<int>* o, int t) : order(o), tag(t) {}
  void run() override { order->push_back(tag); }
  std::vector<int>* order;
  int tag;
};

TEST(EngineTask, TasksInterleaveWithClosuresInFifoOrder) {
  sim::Engine e;
  std::vector<int> order;
  RecordingTask t1(&order, 10);
  RecordingTask t2(&order, 20);
  e.scheduleTask(50, &t1);
  e.schedule(50, [&] { order.push_back(15); });
  e.scheduleTask(50, &t2);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{10, 15, 20}));
}

TEST(EngineTask, CancelledTaskDoesNotRun) {
  sim::Engine e;
  std::vector<int> order;
  RecordingTask t(&order, 1);
  const sim::EventId id = e.scheduleTask(50, &t);
  e.cancel(id);
  e.scheduleTask(60, &t);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(e.eventsProcessed(), 1u);
}

// --- Deterministic replay under random load ------------------------------

TEST(EngineDeterminism, SeededStormReplaysExactly) {
  // Mixed ring/heap traffic with cancellations, driven by the repo's
  // deterministic RNG; the (time, tag) firing sequence must replay
  // bit-exactly across two independent engines.
  auto runStorm = [] {
    sim::Engine e;
    sim::Rng rng(7, "engine-storm");
    sim::Fnv1a h;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 2'000; ++i) {
      const sim::Cycle d = rng.nextBelow(600);  // spans both tiers
      ids.push_back(e.schedule(d, [&h, i, &e] {
        h.mix(e.now()).mix(static_cast<std::uint64_t>(i));
      }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) e.cancel(ids[i]);
    e.run();
    h.mix(e.eventsProcessed());
    return h.digest();
  };
  const std::uint64_t a = runStorm();
  const std::uint64_t b = runStorm();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}

// --- Golden schedule hashes -----------------------------------------------

std::shared_ptr<kernel::ElfImage> jobImage(int id, std::uint64_t reps,
                                           std::uint64_t cyclesPerRep) {
  vm::ProgramBuilder b("job" + std::to_string(id));
  const auto top = b.loopBegin(16, static_cast<std::int64_t>(reps));
  b.compute(cyclesPerRep);
  b.loopEnd(16, top);
  b.halt(0);
  return kernel::ElfImage::makeExecutable("job" + std::to_string(id),
                                          std::move(b).build());
}

// A 4-node machine (one FWK node, so decrementer re-arm traffic is in
// the mix) drains a seeded 10-job stream; returns the service-node
// schedule hash.
std::uint64_t goldenJobstreamHash() {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.seed = 42;
  cfg.nodeKernels.assign(4, rt::KernelKind::kCnk);
  cfg.nodeKernels[3] = rt::KernelKind::kFwk;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster, svc::ServiceNodeConfig{});

  sim::Rng rng(cfg.seed, "golden-jobstream");
  const int jobs = 10;
  int submitted = 0;
  sim::Cycle arrival = 0;
  for (int i = 0; i < jobs; ++i) {
    const bool fwk = rng.nextBelow(4) == 0;
    svc::JobDesc jd;
    jd.name = "job" + std::to_string(i);
    jd.kernel = fwk ? rt::KernelKind::kFwk : rt::KernelKind::kCnk;
    jd.nodes = fwk ? 1 : 1 + static_cast<int>(rng.nextBelow(2));
    const std::uint64_t reps = 6 + rng.nextBelow(12);
    jd.exe = jobImage(i, reps, 9'000);
    jd.estCycles = reps * 9'000 + 120'000;
    arrival += rng.nextBelow(50'000);
    cluster.engine().scheduleAt(arrival, [&host, jd, &submitted] {
      host.submit(jd);
      ++submitted;
    });
  }
  host.start();
  EXPECT_TRUE(cluster.engine().runWhile(
      [&] { return submitted == jobs && host.drained(); },
      500'000'000ULL));
  EXPECT_EQ(host.metrics().jobsCompleted, static_cast<std::uint64_t>(jobs));
  return host.metrics().scheduleHash;
}

TEST(EngineGolden, BootJobstreamScheduleHashPinned) {
  // End-to-end pin: the service-node schedule hash must not move. Any
  // change to event ordering — engine internals, core slice scheduling,
  // decrementer handling — shows up here before it shows up in the big
  // benches. Golden value; re-pin only with an explanation of why the
  // event order legitimately changed.
  EXPECT_EQ(goldenJobstreamHash(), 0x32a1794764d04244ULL);
}

TEST(EngineGolden, BootJobstreamHashRepeatsInOneProcess) {
  // Back-to-back clusters in one process must replay the same
  // schedule: no state may leak from one machine into the next.
  const std::uint64_t first = goldenJobstreamHash();
  const std::uint64_t second = goldenJobstreamHash();
  EXPECT_EQ(first, 0x32a1794764d04244ULL);
  EXPECT_EQ(second, first);
}

TEST(EngineGolden, ZeroFaultJobstreamHashPinned) {
  // The repo-wide zero-fault witness: bench_jobstream's default
  // scenario, a 120-job 8-node backfill stream with a fatal RAS node
  // loss (hash pinned since the crash-safe service node landed).
  // Exercises boot, fship I/O, collective/barrier traffic, and the
  // svc control plane end to end.
  rt::ClusterConfig cfg;
  cfg.computeNodes = 8;
  cfg.seed = 42;
  cfg.nodeKernels.assign(8, rt::KernelKind::kCnk);
  cfg.nodeKernels[6] = rt::KernelKind::kFwk;
  cfg.nodeKernels[7] = rt::KernelKind::kFwk;
  rt::Cluster cluster(cfg);
  svc::ServiceNodeConfig scfg;
  scfg.policy = svc::SchedPolicyKind::kBackfill;
  svc::ServiceHost host(cluster, scfg);

  sim::Rng rng(cfg.seed, "jobstream");
  const int jobs = 120;
  int submitted = 0;
  sim::Cycle arrival = 0;
  for (int i = 0; i < jobs; ++i) {
    const bool fwk = rng.nextBelow(4) == 0;
    const int width = fwk ? 1 : 1 + static_cast<int>(rng.nextBelow(3));
    const std::uint64_t reps = 8 + rng.nextBelow(25);
    svc::JobDesc jd;
    jd.name = "job" + std::to_string(i);
    jd.kernel = fwk ? rt::KernelKind::kFwk : rt::KernelKind::kCnk;
    jd.nodes = width;
    jd.exe = jobImage(i, reps, 12'000);
    jd.estCycles = reps * 12'000 + 120'000;
    arrival += rng.nextBelow(60'000);
    cluster.engine().scheduleAt(arrival, [&host, jd, &submitted] {
      host.submit(jd);
      ++submitted;
    });
  }
  cluster.engine().scheduleAt(4'000'000, [&cluster, &host] {
    cluster.kernelOn(2).logRas(kernel::RasEvent::Code::kNodeFailure,
                               kernel::RasEvent::Severity::kFatal, 0, 0,
                               0xFA11);
    if (host.alive()) host.node().poke();
  });
  host.start();
  ASSERT_TRUE(cluster.engine().runWhile(
      [&] { return submitted == jobs && host.drained(); },
      2'000'000'000ULL));
  EXPECT_EQ(host.metrics().scheduleHash, 0xcb73b2fc8c023c57ULL);
}

}  // namespace
}  // namespace bg
