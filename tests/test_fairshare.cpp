// Multi-tenant fair-share control plane: property-based torture suite.
//
// Randomized multi-account job streams run against the fair-share
// policy (QOS bands, hierarchical decayed-usage priority, per-account
// limits, preemption) and are checked against four oracles:
//
//   1. starvation-freedom — every submission reaches exactly one
//      terminal state and the stream drains; no queue wedges behind a
//      capped or out-ranked account
//   2. limit enforcement — live probes sample every account's
//      runningJobs / nodesInUse against maxRunning / maxNodes while
//      the stream is in flight; a violation at any sampled cycle fails
//   3. share convergence — under saturated equal demand, observed
//      usage approaches the configured share ratio
//   4. preemption safety — preempted jobs are requeued (never failed,
//      no retry budget charged), the preemption count reconciles
//      across the job table, the node counters, and the timeline, and
//      schedules replay bit-identically across double runs (zero-fault
//      and fault-injected, including control-plane warm restarts)
//
// Satellites live here too: the FIFO/backfill golden-hash pin (the
// multi-tenant plumbing must not disturb single-tenant schedules), the
// accounting checkpoint round-trip, and the front-door quota path
// (kQuotaExceeded distinct from kServerBusy, exactly-once under
// retransmit). FAIRSHARE_SLOW=1 unlocks the ≥8-seed sweep in the
// `slow` ctest lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault_schedule.hpp"
#include "frontdoor/frontdoor.hpp"
#include "frontdoor/swarm.hpp"
#include "runtime/app.hpp"
#include "sim/bytes.hpp"
#include "sim/rng.hpp"
#include "svc/accounting.hpp"
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

/// The torture suite's account roster: a share forest with two tiers,
/// every QOS band, a non-preemptable account, and real limits so the
/// limit oracle has something to catch.
svc::FairShareConfig tortureAccounts() {
  svc::FairShareConfig fs;
  svc::AccountSpec physics;
  physics.name = "physics";
  physics.shares = 3;
  svc::AccountSpec chem;
  chem.name = "chem";
  chem.shares = 1;
  chem.maxRunning = 2;
  svc::AccountSpec physSub;
  physSub.name = "phys-sub";
  physSub.parent = 1;  // under physics
  physSub.qos = svc::Qos::kLow;
  physSub.maxNodes = 3;
  svc::AccountSpec urgent;
  urgent.name = "urgent";
  urgent.qos = svc::Qos::kHigh;
  urgent.preemptable = false;
  fs.accounts = {physics, chem, physSub, urgent};
  return fs;
}

struct TortureOutcome {
  std::uint64_t hash = 0;
  std::uint64_t accountingDigest = 0;
  std::vector<std::string> timeline;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t limitViolations = 0;
  std::uint64_t probeSamples = 0;
  bool drained = false;
};

TortureOutcome runFairShareTorture(std::uint64_t seed, int jobCount,
                                   bool withFaults) {
  const int kNodes = 6;
  rt::ClusterConfig cfg;
  cfg.computeNodes = kNodes;
  cfg.seed = seed;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.policy = svc::SchedPolicyKind::kFairShare;
  snCfg.fairshare = tortureAccounts();
  snCfg.ras.warnDrainThreshold = 5;
  svc::ServiceHost host(cluster, snCfg);

  // Multi-account stream: widths 1-3, a sprinkling of unaccounted
  // (account 0) jobs, staggered arrivals.
  sim::Rng rng(seed, "fairshare-torture");
  const sim::Cycle arrivalSpan =
      static_cast<sim::Cycle>(jobCount) * 40'000;
  struct Arrival {
    sim::Cycle at;
    svc::JobDesc jd;
  };
  std::vector<Arrival> arrivals;
  for (int i = 0; i < jobCount; ++i) {
    svc::JobDesc jd;
    jd.name = "f" + std::to_string(i);
    jd.kernel = rt::KernelKind::kCnk;
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(3));
    jd.account = static_cast<svc::AccountId>(rng.nextBelow(5));  // 0-4
    const std::uint64_t reps = 5 + rng.nextBelow(16);
    jd.exe = workImage(jd.name, reps, 10'000);
    jd.estCycles = reps * 10'000 + 50'000;
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

  if (withFaults) {
    const testing::FaultSchedule faults = testing::FaultSchedule::random(
        seed, kNodes, arrivalSpan + 2'000'000, /*crashes=*/2, /*deaths=*/3,
        /*storms=*/2);
    faults.arm(cluster, host);
  }

  // Limit oracle: probe every account's live tallies on a fixed grid
  // while the stream is in flight. A capped account caught over its
  // configured limit at ANY sampled cycle is a policy bug.
  TortureOutcome out;
  const svc::FairShareConfig& fs = snCfg.fairshare;
  for (sim::Cycle t = 25'000; t < arrivalSpan + 4'000'000; t += 75'000) {
    cluster.engine().scheduleAt(t, [&host, &fs, &out] {
      if (!host.alive()) return;
      ++out.probeSamples;
      const svc::Accounting& acct = host.node().accounting();
      for (std::size_t i = 0; i < fs.accounts.size(); ++i) {
        const svc::AccountSpec& spec = fs.accounts[i];
        const svc::AccountUsage& u =
            acct.usage(static_cast<svc::AccountId>(i + 1));
        if (spec.maxRunning != 0 && u.runningJobs > spec.maxRunning) {
          ++out.limitViolations;
        }
        if (spec.maxNodes != 0 && u.nodesInUse > spec.maxNodes) {
          ++out.limitViolations;
        }
      }
    });
  }

  host.start();
  out.drained = cluster.engine().runWhile(
      [&] { return arrived == jobCount && host.drained(); },
      2'000'000'000);
  svc::SvcMetrics m = host.metrics();
  out.hash = m.scheduleHash;
  out.completed = m.jobsCompleted;
  out.failed = m.jobsFailed;
  out.preemptions = m.count(svc::SvcCounter::kPreemptions);
  if (host.alive()) {
    out.timeline = host.node().timeline();
    out.accountingDigest = host.node().accounting().stateDigest();
  }

  // Oracle 1: starvation-freedom. Every job terminal, stream drained.
  EXPECT_TRUE(out.drained) << "stream wedged (seed " << seed << ")";
  const auto& jobs = host.node().jobs();
  EXPECT_EQ(jobs.size(), static_cast<std::size_t>(jobCount));
  std::uint64_t preemptCountSum = 0;
  for (const auto& jr : jobs) {
    EXPECT_TRUE(jr.state == svc::JobState::kCompleted ||
                jr.state == svc::JobState::kFailed)
        << jr.desc.name << " not terminal (seed " << seed << ")";
    // Oracle 4 (part): preemption charges no retry budget — the
    // attempt bound stretches by exactly the preemption count.
    EXPECT_LE(jr.attempts, jr.desc.maxRetries + 1 + jr.preemptCount)
        << jr.desc.name << " overdrew its retry budget";
    preemptCountSum += static_cast<std::uint64_t>(jr.preemptCount);
  }
  EXPECT_EQ(out.completed + out.failed,
            static_cast<std::uint64_t>(jobCount));

  // Oracle 2: the live probes saw no account over its limits.
  EXPECT_EQ(out.limitViolations, 0u) << "limit violated (seed " << seed
                                     << ")";
  EXPECT_GT(out.probeSamples, 0u) << "limit oracle never sampled";

  // Oracle 4 (part): the preemption books reconcile — node counter,
  // per-job counts, per-account counts, and timeline notes all agree.
  EXPECT_EQ(preemptCountSum, out.preemptions);
  if (host.alive()) {
    std::uint64_t acctPreempts = 0;
    const svc::Accounting& acct = host.node().accounting();
    for (std::size_t i = 0; i < fs.accounts.size(); ++i) {
      acctPreempts +=
          acct.usage(static_cast<svc::AccountId>(i + 1)).preemptions;
    }
    // Unaccounted (account 0) jobs are never preemption victims, so
    // the per-account tallies cover every preemption.
    EXPECT_EQ(acctPreempts, out.preemptions);
    std::uint64_t notes = 0;
    for (const std::string& line : out.timeline) {
      if (line.find("preempt") != std::string::npos) ++notes;
    }
    EXPECT_EQ(notes, out.preemptions);
  }
  return out;
}

// ---------------------------------------------------------------------
// Accounting unit properties
// ---------------------------------------------------------------------

svc::FairShareConfig twoAccounts(std::uint32_t sharesA = 1,
                                 std::uint32_t sharesB = 1) {
  svc::FairShareConfig fs;
  svc::AccountSpec a;
  a.name = "a";
  a.shares = sharesA;
  svc::AccountSpec b;
  b.name = "b";
  b.shares = sharesB;
  fs.accounts = {a, b};
  return fs;
}

TEST(Accounting, DecayComposesExactly) {
  // decayTo(t1); decayTo(t2) must equal a single decayTo(t2) from the
  // same state: the multiplicative epoch grid makes charge placement
  // irrelevant, which is what keeps warm restarts bit-identical.
  svc::Accounting stepped(twoAccounts());
  svc::Accounting jumped(twoAccounts());
  stepped.onLaunch(1, 4);
  jumped.onLaunch(1, 4);
  stepped.onStop(1, 4, 1'000'000, 500'000);
  jumped.onStop(1, 4, 1'000'000, 500'000);
  const sim::Cycle far = 19 * 2'000'000 + 123;
  for (sim::Cycle t = 500'000; t <= far; t += 700'000) stepped.decayTo(t);
  stepped.decayTo(far);
  jumped.decayTo(far);
  EXPECT_EQ(stepped.usage(1).decayedUsage, jumped.usage(1).decayedUsage);
  EXPECT_EQ(stepped.stateDigest(), jumped.stateDigest());
  EXPECT_LT(stepped.usage(1).decayedUsage, 1'000'000u) << "never decayed";
}

TEST(Accounting, ScoreFavorsTheUnderserved) {
  svc::Accounting acct(twoAccounts(1, 1));
  // Equal shares, account 1 has consumed everything so far.
  acct.onLaunch(1, 2);
  acct.onStop(1, 2, 5'000'000, 100'000);
  EXPECT_LT(acct.fairShareScore(1), acct.fairShareScore(2));

  // More shares outrank at equal usage.
  svc::Accounting wt(twoAccounts(3, 1));
  wt.onLaunch(1, 1);
  wt.onStop(1, 1, 1'000'000, 100'000);
  wt.onLaunch(2, 1);
  wt.onStop(2, 1, 1'000'000, 100'000);
  EXPECT_GT(wt.fairShareScore(1), wt.fairShareScore(2));
}

TEST(Accounting, HierarchyChargesTheParentChain) {
  // Two top-level accounts, one child each. The child under the
  // heavily-used parent must score below the child under the idle
  // parent even though neither child used anything itself.
  svc::FairShareConfig fs;
  svc::AccountSpec pa, pb, ca, cb;
  pa.name = "pa";
  pb.name = "pb";
  ca.name = "ca";
  ca.parent = 1;
  cb.name = "cb";
  cb.parent = 2;
  fs.accounts = {pa, pb, ca, cb};
  svc::Accounting acct(fs);
  acct.onLaunch(1, 4);
  acct.onStop(1, 4, 8'000'000, 50'000);
  EXPECT_LT(acct.fairShareScore(3), acct.fairShareScore(4));
}

TEST(Accounting, AdmitQueuedHonorsMaxQueuedAndBatchExtras) {
  svc::FairShareConfig fs = twoAccounts();
  fs.accounts[0].maxQueued = 2;
  svc::Accounting acct(fs);
  EXPECT_TRUE(acct.admitQueued(1));
  EXPECT_TRUE(acct.admitQueued(1, 1));
  EXPECT_FALSE(acct.admitQueued(1, 2));  // batch already holds the quota
  acct.onQueued(1);
  acct.onQueued(1);
  EXPECT_FALSE(acct.admitQueued(1));
  acct.onDequeued(1);
  EXPECT_TRUE(acct.admitQueued(1));
  // Unlimited account and unknown ids always admit.
  EXPECT_TRUE(acct.admitQueued(2, 1000));
  EXPECT_TRUE(acct.admitQueued(0));
  EXPECT_TRUE(acct.admitQueued(99));
}

TEST(Accounting, CheckpointRoundTripIsByteIdentical) {
  // Satellite: serialize -> restore -> re-serialize must be
  // byte-identical, and the digest must survive the trip.
  svc::Accounting acct(tortureAccounts());
  acct.onQueued(1);
  acct.onQueued(2);
  acct.onLaunch(1, 3);
  acct.onDequeued(1);
  acct.onStop(1, 3, 2'500'000, 2'100'000);
  acct.onCompleted(1, true);
  acct.onPreempted(3);
  acct.onQuotaReject(2);
  acct.decayTo(9'000'000);

  sim::ByteWriter w1;
  acct.saveTo(w1);
  const std::vector<std::byte> img1 = std::move(w1).take();

  svc::Accounting back(tortureAccounts());
  sim::ByteReader r(img1);
  ASSERT_TRUE(back.loadFrom(r));
  EXPECT_EQ(back.stateDigest(), acct.stateDigest());
  EXPECT_EQ(back.usage(1).decayedUsage, acct.usage(1).decayedUsage);
  EXPECT_EQ(back.usage(2).quotaRejects, 1u);
  EXPECT_EQ(back.usage(3).preemptions, 1u);

  sim::ByteWriter w2;
  back.saveTo(w2);
  EXPECT_EQ(std::move(w2).take(), img1);
}

// ---------------------------------------------------------------------
// FairSharePolicy::select — randomized-context properties
// ---------------------------------------------------------------------

TEST(FairSharePolicy, SelectHonorsLimitsBandsAndCapacity) {
  const std::uint64_t seed = envU64("FAIRSHARE_SEED", 1);
  sim::Rng rng(seed, "fairshare-select-oracle");
  svc::FairSharePolicy policy;
  int nontrivial = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int avail = static_cast<int>(rng.nextBelow(7));
    svc::SchedContext ctx;
    ctx.now = 1'000 * rng.nextBelow(1'000);
    ctx.readyNodes = [avail](rt::KernelKind) { return avail; };
    const std::size_t nAcct = 2 + rng.nextBelow(3);
    for (std::size_t i = 0; i < nAcct; ++i) {
      svc::AccountSchedView v;
      v.id = static_cast<svc::AccountId>(i + 1);
      v.qos = static_cast<svc::Qos>(rng.nextBelow(3));
      v.maxRunning = static_cast<std::uint32_t>(rng.nextBelow(3));  // 0-2
      v.maxNodes = static_cast<std::uint32_t>(rng.nextBelow(5));
      v.runningJobs = static_cast<std::uint32_t>(rng.nextBelow(2));
      v.nodesInUse = v.runningJobs;
      v.fairShareScore = rng.nextBelow(1ULL << 20);
      ctx.accounts.push_back(v);
    }
    std::vector<svc::JobRecord> storage(4 + rng.nextBelow(10));
    for (std::size_t i = 0; i < storage.size(); ++i) {
      storage[i].id = static_cast<svc::JobId>(i + 1);
      storage[i].desc.kernel =
          rng.nextBelow(4) == 0 ? rt::KernelKind::kFwk : rt::KernelKind::kCnk;
      storage[i].desc.nodes = 1 + static_cast<int>(rng.nextBelow(4));
      storage[i].desc.account =
          static_cast<svc::AccountId>(rng.nextBelow(nAcct + 1));  // 0..n
      ctx.queue.push_back(&storage[i]);
    }

    const std::vector<std::size_t> picks = policy.select(ctx);

    // Property: per-kind launches fit the available capacity, and no
    // account exceeds maxRunning / maxNodes counting what was already
    // running when the round began.
    std::map<std::size_t, int> kindNodes;
    std::vector<std::uint32_t> runs(nAcct, 0), nodes(nAcct, 0);
    for (std::size_t qi : picks) {
      const svc::JobRecord* j = ctx.queue[qi];
      kindNodes[j->desc.kernel == rt::KernelKind::kCnk ? 0u : 1u] +=
          j->desc.nodes;
      const svc::AccountId id = j->desc.account;
      if (id >= 1 && id <= nAcct) {
        ++runs[id - 1];
        nodes[id - 1] += static_cast<std::uint32_t>(j->desc.nodes);
      }
    }
    for (const auto& [k, n] : kindNodes) EXPECT_LE(n, avail);
    for (std::size_t i = 0; i < nAcct; ++i) {
      const svc::AccountSchedView& v = ctx.accounts[i];
      if (v.maxRunning != 0) {
        EXPECT_LE(v.runningJobs + runs[i], v.maxRunning) << "trial "
                                                         << trial;
      }
      if (v.maxNodes != 0) {
        EXPECT_LE(v.nodesInUse + nodes[i], v.maxNodes) << "trial " << trial;
      }
    }

    // Property: strict QOS bands per kind — no launched job sits in a
    // strictly lower band than a CAPACITY-blocked job of the same
    // kind. Account-limit skips deliberately don't block (waiting
    // can't free a limit), so the oracle only judges blocked jobs
    // whose account has no limits at all (those can only have been
    // stopped by capacity).
    auto qosOf = [&](const svc::JobRecord* j) {
      const svc::AccountId id = j->desc.account;
      return id >= 1 && id <= nAcct ? ctx.accounts[id - 1].qos
                                    : svc::Qos::kNormal;
    };
    auto unlimited = [&](const svc::JobRecord* j) {
      const svc::AccountId id = j->desc.account;
      if (id < 1 || id > nAcct) return true;  // unaccounted: no limits
      const svc::AccountSchedView& v = ctx.accounts[id - 1];
      return v.maxRunning == 0 && v.maxNodes == 0;
    };
    std::vector<bool> picked(ctx.queue.size(), false);
    for (std::size_t qi : picks) picked[qi] = true;
    for (std::size_t b = 0; b < ctx.queue.size(); ++b) {
      if (picked[b]) continue;
      const svc::JobRecord* blocked = ctx.queue[b];
      if (blocked->desc.nodes <= avail) continue;  // never fit anyway
      if (!unlimited(blocked)) continue;  // may have been limit-skipped
      for (std::size_t qi : picks) {
        const svc::JobRecord* won = ctx.queue[qi];
        if (won->desc.kernel != blocked->desc.kernel) continue;
        EXPECT_GE(qosOf(won), qosOf(blocked))
            << "a lower-QOS job launched past a blocked higher band "
            << "(trial " << trial << ")";
      }
    }
    if (!picks.empty() && picks.size() < ctx.queue.size()) ++nontrivial;
  }
  EXPECT_GE(nontrivial, 50) << "oracle barely exercised";
}

// ---------------------------------------------------------------------
// Preemption end-to-end
// ---------------------------------------------------------------------

TEST(FairShare, PreemptionFreesNodesForHighQosExactlyOnce) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.seed = 11;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.policy = svc::SchedPolicyKind::kFairShare;
  svc::AccountSpec low;
  low.name = "batch";
  low.qos = svc::Qos::kLow;
  svc::AccountSpec high;
  high.name = "urgent";
  high.qos = svc::Qos::kHigh;
  snCfg.fairshare.accounts = {low, high};
  svc::ServiceHost host(cluster, snCfg);

  // Four long single-node low-QOS jobs occupy the whole machine...
  int arrived = 0;
  for (int i = 0; i < 4; ++i) {
    svc::JobDesc jd;
    jd.name = "low" + std::to_string(i);
    jd.nodes = 1;
    jd.account = 1;
    jd.exe = workImage(jd.name, 400, 10'000);
    jd.estCycles = 4'200'000;
    cluster.engine().scheduleAt(10'000, [&host, jd, &arrived]() mutable {
      host.submit(std::move(jd));
      ++arrived;
    });
  }
  // ...then a high-QOS job needing 3 of the 4 nodes arrives.
  svc::JobDesc hi;
  hi.name = "hi";
  hi.nodes = 3;
  hi.account = 2;
  hi.exe = workImage("hi", 10, 10'000);
  hi.estCycles = 200'000;
  cluster.engine().scheduleAt(600'000, [&host, hi, &arrived]() mutable {
    host.submit(std::move(hi));
    ++arrived;
  });

  host.start();
  ASSERT_TRUE(cluster.engine().runWhile(
      [&] { return arrived == 5 && host.drained(); }, 1'000'000'000));

  // Exactly the shortfall was preempted: 3 nodes needed, 0 free.
  EXPECT_EQ(host.node().count(svc::SvcCounter::kPreemptions), 3u);
  const svc::JobRecord* hij = nullptr;
  int victims = 0;
  for (const auto& jr : host.node().jobs()) {
    EXPECT_EQ(jr.state, svc::JobState::kCompleted) << jr.desc.name;
    if (jr.desc.name == "hi") hij = &jr;
    if (jr.preemptCount > 0) {
      ++victims;
      EXPECT_EQ(jr.preemptCount, 1) << jr.desc.name << " killed twice";
      // No retry budget was charged: two launches on a zero-retry job.
      EXPECT_EQ(jr.attempts, 2) << jr.desc.name;
    }
  }
  ASSERT_NE(hij, nullptr);
  EXPECT_EQ(victims, 3);
  EXPECT_EQ(host.node().accounting().usage(1).preemptions, 3u);
  // The high job ran long before the 4.2M-cycle low jobs would have
  // finished on their own.
  EXPECT_LT(hij->startCycle, 4'000'000u);
  EXPECT_EQ(host.metrics().count(svc::SvcCounter::kPreemptions), 3u);
}

TEST(FairShare, NonPreemptableAndPeerQosAreNeverVictims) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  cfg.seed = 12;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.policy = svc::SchedPolicyKind::kFairShare;
  svc::AccountSpec pinned;
  pinned.name = "pinned";
  pinned.qos = svc::Qos::kLow;
  pinned.preemptable = false;
  svc::AccountSpec peer;
  peer.name = "peer";
  peer.qos = svc::Qos::kHigh;
  svc::AccountSpec rush;
  rush.name = "rush";
  rush.qos = svc::Qos::kHigh;
  snCfg.fairshare.accounts = {pinned, peer, rush};
  svc::ServiceHost host(cluster, snCfg);

  int arrived = 0;
  auto submitAt = [&](sim::Cycle at, const std::string& name,
                      svc::AccountId acct, std::uint64_t reps) {
    svc::JobDesc jd;
    jd.name = name;
    jd.nodes = 1;
    jd.account = acct;
    jd.exe = workImage(name, reps, 10'000);
    jd.estCycles = reps * 10'000 + 100'000;
    cluster.engine().scheduleAt(at, [&host, jd, &arrived]() mutable {
      host.submit(std::move(jd));
      ++arrived;
    });
  };
  submitAt(10'000, "pinned0", 1, 300);  // non-preemptable low
  submitAt(10'000, "peer0", 2, 300);    // high, same band as the rush
  submitAt(500'000, "rush0", 3, 10);    // high arrival finds no nodes

  host.start();
  ASSERT_TRUE(cluster.engine().runWhile(
      [&] { return arrived == 3 && host.drained(); }, 1'000'000'000));
  // Nothing could legally be killed: the low job is pinned and the
  // peer is not in a strictly lower band. The rush job just waits.
  EXPECT_EQ(host.node().count(svc::SvcCounter::kPreemptions), 0u);
  for (const auto& jr : host.node().jobs()) {
    EXPECT_EQ(jr.preemptCount, 0) << jr.desc.name;
    EXPECT_EQ(jr.state, svc::JobState::kCompleted) << jr.desc.name;
  }
}

// ---------------------------------------------------------------------
// Share convergence (oracle 3)
// ---------------------------------------------------------------------

TEST(FairShare, SharesConvergeUnderSaturatedEqualDemand) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.seed = 21;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig snCfg;
  snCfg.policy = svc::SchedPolicyKind::kFairShare;
  snCfg.fairshare = twoAccounts(/*sharesA=*/3, /*sharesB=*/1);
  svc::ServiceHost host(cluster, snCfg);

  // Equal demand from both accounts, far more than the machine can
  // run at once: the only thing separating them is the 3:1 shares.
  int arrived = 0;
  const int kPer = 40;
  for (int i = 0; i < kPer * 2; ++i) {
    svc::JobDesc jd;
    jd.name = (i % 2 == 0 ? 'a' : 'b') + std::to_string(i / 2);
    jd.nodes = 1;
    jd.account = i % 2 == 0 ? 1 : 2;
    jd.exe = workImage(jd.name, 20, 10'000);
    jd.estCycles = 260'000;
    cluster.engine().scheduleAt(1'000 + i, [&host, jd, &arrived]() mutable {
      host.submit(std::move(jd));
      ++arrived;
    });
  }
  host.start();
  ASSERT_TRUE(cluster.engine().runWhile(
      [&] { return arrived == kPer * 2 && host.drained(); },
      1'000'000'000));

  const svc::Accounting& acct = host.node().accounting();
  const double ua = static_cast<double>(acct.usage(1).lifetimeUsage);
  const double ub = static_cast<double>(acct.usage(2).lifetimeUsage);
  ASSERT_GT(ub, 0.0);
  const double ratio = ua / ub;
  // Everything eventually runs (equal job sizes), so lifetime usage
  // ends 1:1 — convergence shows in WHO RAN FIRST. Compare usage at
  // the midpoint instead: account 1 must have harvested roughly 3x.
  // We approximate "midpoint" via completion order: the first 40
  // completions should lean ~3:1 toward account 1.
  int firstA = 0, firstB = 0;
  std::vector<std::pair<sim::Cycle, svc::AccountId>> ends;
  for (const auto& jr : host.node().jobs()) {
    ends.push_back({jr.endCycle, jr.desc.account});
  }
  std::sort(ends.begin(), ends.end());
  for (int i = 0; i < kPer; ++i) {
    (ends[i].second == 1 ? firstA : firstB)++;
  }
  EXPECT_GE(firstA, firstB * 2)
      << "3:1 shares did not dominate early completions (ratio "
      << ratio << ")";
  EXPECT_GT(firstB, 0) << "low-share account fully starved";
}

// ---------------------------------------------------------------------
// Single-tenant neutrality: golden-hash pin (satellite)
// ---------------------------------------------------------------------

std::uint64_t runPinnedStream(svc::SchedPolicyKind policy) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 6;
  cfg.seed = 7;
  rt::Cluster cluster(cfg);
  svc::ServiceNodeConfig snCfg;
  snCfg.policy = policy;
  svc::ServiceHost host(cluster, snCfg);

  sim::Rng rng(99, "fairshare-pin");
  int arrived = 0;
  const int kJobs = 40;
  for (int i = 0; i < kJobs; ++i) {
    svc::JobDesc jd;
    jd.name = 'p' + std::to_string(i);
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(3));
    const std::uint64_t reps = 5 + rng.nextBelow(12);
    jd.exe = workImage(jd.name, reps, 10'000);
    jd.estCycles = reps * 10'000 + 50'000;
    const sim::Cycle at = rng.nextBelow(1'500'000);
    cluster.engine().scheduleAt(at, [&host, jd, &arrived]() mutable {
      host.submit(std::move(jd));
      ++arrived;
    });
  }
  host.start();
  EXPECT_TRUE(cluster.engine().runWhile(
      [&] { return arrived == kJobs && host.drained(); }, 1'000'000'000));
  return host.metrics().scheduleHash;
}

TEST(FairShare, SingleTenantGoldenHashesUndisturbed) {
  // Pinned single-tenant schedules: the multi-tenant plumbing (account
  // fields, accounting hooks, SchedContext extensions) must leave
  // FIFO and backfill byte-for-byte where they were. If one of these
  // moves, a supposedly-neutral refactor changed scheduling behavior.
  EXPECT_EQ(runPinnedStream(svc::SchedPolicyKind::kFifo),
            0xe21ec28fcc1c0e95ULL);
  EXPECT_EQ(runPinnedStream(svc::SchedPolicyKind::kBackfill),
            0xfc400982c122871eULL);
  // Fair-share with ZERO accounts degenerates to FIFO order (same
  // pin), so the no-accounts fast path provably adds nothing.
  EXPECT_EQ(runPinnedStream(svc::SchedPolicyKind::kFairShare),
            0xe21ec28fcc1c0e95ULL);
}

// ---------------------------------------------------------------------
// Torture suite (tentpole oracles 1-4 on randomized streams)
// ---------------------------------------------------------------------

TEST(FairShareTorture, ZeroFaultStreamHoldsOraclesAndReplays) {
  const std::uint64_t seed = envU64("FAIRSHARE_SEED", 1);
  const int jobs = static_cast<int>(envU64("FAIRSHARE_JOBS", 120));
  const TortureOutcome a = runFairShareTorture(seed, jobs, false);
  const TortureOutcome b = runFairShareTorture(seed, jobs, false);
  EXPECT_EQ(a.hash, b.hash) << "zero-fault replay diverged";
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.accountingDigest, b.accountingDigest)
      << "accounting state diverged across identical runs";
}

TEST(FairShareTorture, FaultedStreamSurvivesWarmRestartsAndReplays) {
  const std::uint64_t seed = envU64("FAIRSHARE_SEED", 1);
  const int jobs = static_cast<int>(envU64("FAIRSHARE_JOBS", 120));
  const TortureOutcome a = runFairShareTorture(seed, jobs, true);
  const TortureOutcome b = runFairShareTorture(seed, jobs, true);
  // Control-plane crashes + node deaths + warn storms: the schedule
  // (including every fair-share decision made before and after each
  // warm restart) and the final accounting state replay bit-identically
  // — the checkpointed accounting section is doing its job.
  EXPECT_EQ(a.hash, b.hash) << "faulted replay diverged";
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.accountingDigest, b.accountingDigest);
}

// ---------------------------------------------------------------------
// Front door × fair share (satellite)
// ---------------------------------------------------------------------

std::shared_ptr<kernel::ElfImage> fdWorkImage() {
  vm::ProgramBuilder b("fdwork");
  const auto top = b.loopBegin(16, 12);
  b.compute(10'000);
  b.loopEnd(16, top);
  b.halt(0);
  return kernel::ElfImage::makeExecutable("fdwork", std::move(b).build());
}

struct QuotaRig {
  rt::Cluster cluster;
  svc::ServiceHost host;
  hw::CollectiveNet net;
  fd::FrontDoor door;
  std::vector<fd::Response> responses;

  QuotaRig(svc::FairShareConfig fs, fd::FrontDoorConfig fcfg)
      : cluster([] {
          rt::ClusterConfig c;
          c.computeNodes = 2;
          c.seed = 7;
          return c;
        }()),
        host(cluster,
             [&fs] {
               svc::ServiceNodeConfig s;
               s.policy = svc::SchedPolicyKind::kFairShare;
               s.fairshare = std::move(fs);
               s.checkpointEveryPumps = 0;
               return s;
             }()),
        net(cluster.engine()),
        door(cluster.engine(), host, net, fcfg) {
    host.store().registerImage(fdWorkImage());
    host.start();
    door.attach();
    net.setHandler(5, [this](hw::CollPacket&& p) {
      const auto r = fd::Response::decode(p.payload);
      if (r) responses.push_back(*r);
    });
  }

  void send(const fd::Request& q) {
    hw::CollPacket pkt;
    pkt.srcNode = 5;
    pkt.dstNode = 0;
    pkt.channel = fd::kChanFdRequest;
    pkt.payload = q.encode();
    net.send(std::move(pkt));
  }

  void settle(sim::Cycle cycles = 2'000'000) {
    cluster.engine().runUntil(cluster.engine().now() + cycles);
  }
};

TEST(FdFairShare, QuotaRejectIsDistinctLiveAndExactlyOnce) {
  svc::FairShareConfig fs = twoAccounts();
  fs.accounts[0].maxQueued = 2;
  fd::FrontDoorConfig fcfg;
  fcfg.accountOf = [](std::uint32_t cid) {
    return cid == 7 ? svc::AccountId{1} : svc::AccountId{0};
  };
  QuotaRig rig(std::move(fs), fcfg);

  auto submit = [&](std::uint64_t seq, bool retransmit = false) {
    fd::Request q;
    q.type = fd::MsgType::kSubmit;
    q.clientId = 7;
    q.seq = seq;
    q.retransmit = retransmit;
    q.jobName = "q" + std::to_string(seq);
    q.exeName = "fdwork";
    q.estCycles = 200'000;
    rig.send(q);
  };

  // Three rapid submits inside one batch window: the quota counts the
  // not-yet-flushed batch, so the third bounces even though nothing
  // has reached the scheduler queue yet.
  submit(1);
  submit(2);
  submit(3);
  rig.cluster.engine().runUntil(5'000);
  ASSERT_EQ(rig.responses.size(), 3u);
  EXPECT_EQ(rig.responses[0].status, fd::Status::kOk);
  EXPECT_EQ(rig.responses[1].status, fd::Status::kOk);
  // Distinct reject: a quota bounce is NOT kServerBusy — the client
  // must learn its account (not the server) is the bottleneck.
  EXPECT_EQ(rig.responses[2].status, fd::Status::kQuotaExceeded);
  EXPECT_EQ(rig.door.stats().quotaRejected, 1u);
  EXPECT_EQ(rig.door.stats().rejected, 0u);
  EXPECT_EQ(rig.door.stats().accepted, 2u);
  EXPECT_EQ(rig.host.node().ras().countByCode(
                kernel::RasEvent::Code::kQuotaRejected),
            1u);
  EXPECT_EQ(rig.host.node().accounting().usage(1).quotaRejects, 1u);

  // Exactly-once under retransmit: the cached kQuotaExceeded is
  // replayed; the reject is not re-counted and no job appears.
  submit(3, /*retransmit=*/true);
  rig.cluster.engine().runUntil(10'000);
  ASSERT_EQ(rig.responses.size(), 4u);
  EXPECT_EQ(rig.responses[3].status, fd::Status::kQuotaExceeded);
  EXPECT_EQ(rig.door.stats().quotaRejected, 1u);
  EXPECT_EQ(rig.door.stats().replays, 1u);

  // The quota is live, not sticky: once the queued work drains, the
  // same account submits again successfully.
  rig.settle(8'000'000);
  ASSERT_TRUE(rig.host.drained());
  submit(4);
  rig.settle();
  ASSERT_EQ(rig.responses.size(), 5u);
  EXPECT_EQ(rig.responses[4].status, fd::Status::kOk);
  EXPECT_EQ(rig.door.stats().accepted, 3u);
}

TEST(FdFairShare, SwarmMapsClientsToQosTiersDeterministically) {
  auto run = [](std::uint64_t seed) {
    rt::ClusterConfig cfg;
    cfg.computeNodes = 4;
    cfg.seed = seed;
    // The swarm's default job mix is ~25% FWK; without an FWK node
    // those jobs could never launch and the queue would never drain.
    cfg.nodeKernels = {rt::KernelKind::kCnk, rt::KernelKind::kCnk,
                       rt::KernelKind::kCnk, rt::KernelKind::kFwk};
    rt::Cluster cluster(cfg);

    svc::ServiceNodeConfig scfg;
    scfg.policy = svc::SchedPolicyKind::kFairShare;
    svc::AccountSpec hi, mid, lo;
    hi.name = "hi";
    hi.qos = svc::Qos::kHigh;
    mid.name = "mid";
    lo.name = "lo";
    lo.qos = svc::Qos::kLow;
    scfg.fairshare.accounts = {hi, mid, lo};
    scfg.checkpointEveryPumps = 0;
    svc::ServiceHost host(cluster, scfg);
    host.store().registerImage(fdWorkImage());

    hw::CollectiveNet fdnet(cluster.engine());
    fd::FrontDoorConfig fcfg;
    // Identity plumbing: wire clientId -> account (QOS tier).
    fcfg.accountOf = [](std::uint32_t cid) {
      return static_cast<svc::AccountId>(cid % 3 + 1);
    };
    fd::FrontDoor door(cluster.engine(), host, fdnet, fcfg);
    door.attach();

    fd::SwarmParams sp;
    sp.clients = 30;
    sp.submitsPerClient = 2;
    sp.seed = seed;
    sp.bursts = 2;
    sp.estCycles = 150'000;
    fd::Swarm swarm(cluster.engine(), fdnet, sp);

    host.start();
    swarm.start();
    const bool drained = cluster.engine().runWhile(
        [&] {
          return swarm.quiescent() && door.batchedCount() == 0 &&
                 host.drained();
        },
        200'000'000ULL);
    EXPECT_TRUE(drained) << "swarm quiescent=" << swarm.quiescent()
                         << " batched=" << door.batchedCount()
                         << " hostDrained=" << host.drained()
                         << " queueDepth=" << host.node().queueDepth()
                         << " completed=" << host.metrics().jobsCompleted;

    svc::SvcMetrics m = host.metrics();
    const fd::Swarm::Totals t = swarm.totals();
    EXPECT_EQ(t.acked, 60u);
    EXPECT_EQ(t.quotaRejected, 0u);  // no maxQueued configured
    EXPECT_EQ(m.jobsCompleted, 60u);
    // Every tier got identity-tagged work: 10 clients x 2 submits each.
    EXPECT_EQ(m.accounts.size(), 3u);
    for (const svc::AccountMetrics& am : m.accounts) {
      EXPECT_EQ(am.jobsCompleted, 20u) << am.name;
      EXPECT_GT(am.lifetimeUsage, 0u) << am.name;
    }
    return std::pair<std::uint64_t, std::uint64_t>{m.scheduleHash,
                                                   door.digest()};
  };
  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(a.first, b.first) << "fd x fairshare schedule diverged";
  EXPECT_EQ(a.second, b.second) << "admission digest diverged";
}

// ---------------------------------------------------------------------
// Slow lane: multi-seed sweep (satellite)
// ---------------------------------------------------------------------

TEST(FairShareSlow, MultiSeedTortureSweep) {
  if (std::getenv("FAIRSHARE_SLOW") == nullptr) {
    GTEST_SKIP() << "slow lane only (ctest -L slow)";
  }
  const int jobs = static_cast<int>(envU64("FAIRSHARE_JOBS", 150));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const bool faults = seed % 2 == 0;  // alternate clean / faulted
    const TortureOutcome a = runFairShareTorture(seed, jobs, faults);
    const TortureOutcome b = runFairShareTorture(seed, jobs, faults);
    EXPECT_EQ(a.hash, b.hash) << "seed " << seed << " diverged";
    EXPECT_EQ(a.timeline, b.timeline) << "seed " << seed;
    EXPECT_EQ(a.accountingDigest, b.accountingDigest) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bg
