// Randomized torture of the service-node control plane: hundreds of
// jobs with staggered arrivals under FIFO and EASY backfill, with
// control-plane crashes, node deaths, warn storms and CIOD fail-stops
// injected at seeded cycles (fault_schedule.hpp). A slice of the jobs
// performs function-shipped I/O under tight fship watchdogs, so a
// killed CIOD is detected the honest way — timeout storms raising
// kIoNodeDead — and the service node must requeue the pset's jobs and
// repair the I/O node rather than wedge. Policy invariants checked on
// every stream:
//
//   - no job is lost or duplicated: every submission reaches exactly
//     one terminal state, completed + failed == submitted
//   - bounded retries: attempts never exceed maxRetries + 1
//   - every node returns to kReady once the stream drains
//   - same seed => identical scheduleHash and timeline (replay)
//   - EASY backfill never delays the blocked queue head (simulation
//     oracle over randomized contexts, against the policy directly)
//
// Seeds and stream size come from SVC_TORTURE_SEED / SVC_TORTURE_JOBS
// when set (CI sweeps several fixed seeds); the `slow` ctest lane
// (SVC_TORTURE_SLOW=1) runs a much longer stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "apps/io_kernel.hpp"
#include "fault_schedule.hpp"
#include "runtime/app.hpp"
#include "sim/rng.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace bg {
namespace {

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 10)
                                    : fallback;
}

std::shared_ptr<kernel::ElfImage> workImage(const std::string& name,
                                            std::uint64_t reps,
                                            std::uint64_t cyclesPerRep) {
  vm::ProgramBuilder b(name);
  const auto top = b.loopBegin(16, static_cast<std::int64_t>(reps));
  b.compute(cyclesPerRep);
  b.loopEnd(16, top);
  b.halt(0);
  return kernel::ElfImage::makeExecutable(name, std::move(b).build());
}

struct TortureOutcome {
  std::uint64_t hash = 0;
  std::vector<std::string> timeline;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t predictiveDrains = 0;
  std::uint64_t ioReboots = 0;
  std::uint64_t crashes = 0;
  std::uint64_t coldStarts = 0;
  bool drained = false;
};

TortureOutcome runTorture(std::uint64_t seed, svc::SchedPolicyKind policy,
                          int jobCount) {
  const int kNodes = 6;
  rt::ClusterConfig cfg;
  cfg.computeNodes = kNodes;
  cfg.seed = seed;
  // Tight fship watchdogs so a CIOD killed by the fault schedule is
  // declared dead within one control-loop cadence instead of the
  // (deliberately huge) fault-free defaults.
  cfg.cnk.fship.requestTimeout = 100'000;
  cfg.cnk.fship.maxTimeout = 400'000;
  cfg.cnk.fship.maxRetries = 2;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.policy = policy;
  snCfg.ras.warnDrainThreshold = 5;
  svc::ServiceHost host(cluster, snCfg);

  // Job stream: widths 1-3, staggered arrivals over the first part of
  // the run so crashes land between, before and after submissions.
  sim::Rng rng(seed, "svc-torture");
  const sim::Cycle arrivalSpan =
      static_cast<sim::Cycle>(jobCount) * 40'000;
  struct Arrival {
    sim::Cycle at;
    svc::JobDesc jd;
  };
  std::vector<Arrival> arrivals;
  for (int i = 0; i < jobCount; ++i) {
    svc::JobDesc jd;
    jd.name = 't' + std::to_string(i);
    jd.kernel = rt::KernelKind::kCnk;
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(3));
    if (i % 5 == 2) {
      // Every fifth job function-ships real I/O, so a CIOD fail-stop
      // from the fault schedule actually produces a timeout storm.
      apps::IoKernelParams ip;
      ip.chunks = 2;
      ip.chunkBytes = 2 << 10;
      ip.computeBetween = 20'000;
      jd.exe = apps::ioKernelImage(ip);
      jd.estCycles = 500'000;
    } else {
      const std::uint64_t reps = 5 + rng.nextBelow(16);
      jd.exe = workImage(jd.name, reps, 10'000);
      jd.estCycles = reps * 10'000 + 50'000;
    }
    jd.maxRetries = 2;
    arrivals.push_back({rng.nextBelow(arrivalSpan), std::move(jd)});
  }
  int arrived = 0;
  for (Arrival& a : arrivals) {
    cluster.engine().scheduleAt(a.at, [&host, &arrived, &a] {
      host.submit(std::move(a.jd));
      ++arrived;
    });
  }

  const testing::FaultSchedule faults = testing::FaultSchedule::random(
      seed, kNodes, arrivalSpan + 2'000'000, /*crashes=*/3, /*deaths=*/4,
      /*storms=*/3, /*ioDeaths=*/2, /*ioNodes=*/1);
  faults.arm(cluster, host);

  host.start();
  TortureOutcome out;
  out.drained = cluster.engine().runWhile(
      [&] { return arrived == jobCount && host.drained(); },
      2'000'000'000);
  svc::SvcMetrics m = host.metrics();
  out.hash = m.scheduleHash;
  out.completed = m.jobsCompleted;
  out.failed = m.jobsFailed;
  out.retries = m.count(svc::SvcCounter::kRetries);
  out.predictiveDrains = m.count(svc::SvcCounter::kPredictiveDrains);
  out.ioReboots = m.count(svc::SvcCounter::kIoReboots) +
                  m.count(svc::SvcCounter::kIoFailovers);
  out.crashes = m.serviceCrashes;
  out.coldStarts = host.coldStarts();
  if (host.alive()) out.timeline = host.node().timeline();

  // Structural invariants, checked here so every stream gets them.
  EXPECT_TRUE(out.drained) << "stream wedged (seed " << seed << ")";
  EXPECT_EQ(out.coldStarts, 0u) << "a checkpoint failed to restore";
  const auto& jobs = host.node().jobs();
  EXPECT_EQ(jobs.size(), static_cast<std::size_t>(jobCount))
      << "jobs lost or duplicated across crashes";
  std::set<std::string> names;
  std::set<svc::JobId> ids;
  for (const auto& jr : jobs) {
    names.insert(jr.desc.name);
    ids.insert(jr.id);
    EXPECT_TRUE(jr.state == svc::JobState::kCompleted ||
                jr.state == svc::JobState::kFailed)
        << jr.desc.name << " not terminal";
    EXPECT_LE(jr.attempts, jr.desc.maxRetries + 1)
        << jr.desc.name << " exceeded its retry budget";
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(jobCount));
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(jobCount));
  EXPECT_EQ(out.completed + out.failed,
            static_cast<std::uint64_t>(jobCount));
  svc::PartitionManager& pm = host.node().partitions();
  for (int n = 0; n < pm.size(); ++n) {
    EXPECT_EQ(pm.state(n), svc::NodeLifecycle::kReady)
        << "node " << n << " never returned to service";
  }
  return out;
}

TEST(SvcTorture, BackfillStreamSurvivesCrashesAndReplays) {
  const std::uint64_t seed = envU64("SVC_TORTURE_SEED", 1);
  const int jobCount =
      static_cast<int>(envU64("SVC_TORTURE_JOBS", 200));
  const TortureOutcome a =
      runTorture(seed, svc::SchedPolicyKind::kBackfill, jobCount);
  const TortureOutcome b =
      runTorture(seed, svc::SchedPolicyKind::kBackfill, jobCount);
  EXPECT_EQ(a.hash, b.hash) << "same-seed replay diverged";
  EXPECT_EQ(a.timeline, b.timeline);
}

TEST(SvcTorture, FifoStreamSurvivesCrashesAndReplays) {
  const std::uint64_t seed = envU64("SVC_TORTURE_SEED", 1);
  const int jobCount =
      static_cast<int>(envU64("SVC_TORTURE_JOBS", 200));
  const TortureOutcome a =
      runTorture(seed, svc::SchedPolicyKind::kFifo, jobCount);
  const TortureOutcome b =
      runTorture(seed, svc::SchedPolicyKind::kFifo, jobCount);
  EXPECT_EQ(a.hash, b.hash) << "same-seed replay diverged";
  // The two policies must actually schedule differently (otherwise
  // the torture isn't exercising the policy layer at all).
  const TortureOutcome bf =
      runTorture(seed, svc::SchedPolicyKind::kBackfill, jobCount);
  EXPECT_NE(a.hash, bf.hash);
}

// --- EASY property: backfill never delays the blocked head --------------

/// Earliest cycle at which `needed` nodes are simultaneously free,
/// given `availNow` free nodes plus (cycle, nodes) releases. Returns
/// max() when never.
sim::Cycle earliestFit(int availNow, int needed,
                       std::vector<std::pair<sim::Cycle, int>> releases,
                       sim::Cycle now) {
  if (availNow >= needed) return now;
  std::sort(releases.begin(), releases.end());
  int avail = availNow;
  for (const auto& [at, n] : releases) {
    avail += n;
    if (avail >= needed) return std::max(at, now);
  }
  return std::numeric_limits<sim::Cycle>::max();
}

TEST(SvcTorture, BackfillNeverDelaysBlockedHead) {
  const std::uint64_t seed = envU64("SVC_TORTURE_SEED", 1);
  sim::Rng rng(seed, "backfill-oracle");
  svc::BackfillPolicy bf;
  int blockedContexts = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const sim::Cycle now = 1'000 * rng.nextBelow(1'000);
    const int availNow = static_cast<int>(rng.nextBelow(9));

    std::vector<svc::JobRecord> storage(5 + rng.nextBelow(11));
    std::vector<svc::RunningJobInfo> running(rng.nextBelow(7));
    svc::SchedContext ctx;
    ctx.now = now;
    ctx.readyNodes = [availNow](rt::KernelKind) { return availNow; };
    for (std::size_t i = 0; i < storage.size(); ++i) {
      storage[i].id = static_cast<svc::JobId>(i + 1);
      storage[i].desc.kernel = rt::KernelKind::kCnk;
      storage[i].desc.nodes = 1 + static_cast<int>(rng.nextBelow(8));
      storage[i].desc.estCycles = 1'000 * (1 + rng.nextBelow(10'000));
      ctx.queue.push_back(&storage[i]);
    }
    for (std::size_t i = 0; i < running.size(); ++i) {
      running[i].id = static_cast<svc::JobId>(100 + i);
      running[i].kernel = rt::KernelKind::kCnk;
      running[i].nodes = 1 + static_cast<int>(rng.nextBelow(4));
      running[i].estEnd = now + 1'000 * (1 + rng.nextBelow(8'000));
    }
    ctx.running = running;

    const std::vector<std::size_t> picks = bf.select(ctx);

    // Find the blocked head: first queue index not in the FIFO prefix.
    std::size_t head = 0;
    {
      int avail = availNow;
      while (head < ctx.queue.size() &&
             ctx.queue[head]->desc.nodes <= avail) {
        avail -= ctx.queue[head]->desc.nodes;
        ++head;
      }
    }
    if (head >= ctx.queue.size()) continue;  // nothing blocked
    const int headNodes = ctx.queue[head]->desc.nodes;
    int fifoPrefixNodes = 0;
    for (std::size_t i = 0; i < head; ++i) {
      fifoPrefixNodes += ctx.queue[i]->desc.nodes;
    }

    // Oracle: the head's start time assuming estimates are exact, with
    // and without the backfilled jobs occupying nodes. Launched jobs
    // (FIFO prefix and backfills) hold nodes from `now` and release at
    // now + estCycles.
    std::vector<std::pair<sim::Cycle, int>> releases;
    for (const auto& r : running) releases.push_back({r.estEnd, r.nodes});
    for (std::size_t i = 0; i < head; ++i) {
      releases.push_back(
          {now + ctx.queue[i]->desc.estCycles, ctx.queue[i]->desc.nodes});
    }
    const sim::Cycle without =
        earliestFit(availNow - fifoPrefixNodes, headNodes, releases, now);

    int backfilledNodes = 0;
    for (std::size_t qi : picks) {
      if (qi < head) continue;
      ASSERT_NE(qi, head) << "policy launched the blocked head";
      releases.push_back(
          {now + ctx.queue[qi]->desc.estCycles, ctx.queue[qi]->desc.nodes});
      backfilledNodes += ctx.queue[qi]->desc.nodes;
    }
    const sim::Cycle with =
        earliestFit(availNow - fifoPrefixNodes - backfilledNodes,
                    headNodes, releases, now);
    if (without == std::numeric_limits<sim::Cycle>::max()) continue;
    EXPECT_LE(with, without)
        << "backfill delayed the head (trial " << trial << ", seed "
        << seed << ")";
    ++blockedContexts;
  }
  EXPECT_GE(blockedContexts, 50) << "oracle barely exercised";
}

// --- slow lane ----------------------------------------------------------

TEST(SvcTortureSlow, LongStream) {
  if (std::getenv("SVC_TORTURE_SLOW") == nullptr) {
    GTEST_SKIP() << "slow lane only (ctest -L slow)";
  }
  const std::uint64_t seed = envU64("SVC_TORTURE_SEED", 1);
  const int jobCount =
      static_cast<int>(envU64("SVC_TORTURE_JOBS", 1'000));
  const TortureOutcome a =
      runTorture(seed, svc::SchedPolicyKind::kBackfill, jobCount);
  const TortureOutcome b =
      runTorture(seed, svc::SchedPolicyKind::kBackfill, jobCount);
  EXPECT_EQ(a.hash, b.hash);
}

}  // namespace
}  // namespace bg
