// Multi-tenant accounting for the service node: accounts, hierarchical
// fair-share, usage decay, per-account resource limits, QOS tiers.
//
// The paper's division of labor (§III) keeps CNK single-job-simple
// because all policy lives on the service node; this module is that
// policy's bookkeeping half, mirroring SLURM's association manager /
// accounting-storage split. Every quantity is integer arithmetic on
// the simulated clock: usage decays multiplicatively on a fixed epoch
// grid, so two runs that charge the same node-cycles at the same
// cycles hold bit-identical state — the fair-share torture suite's
// replay oracle depends on it. State serializes through the service
// node's checkpoint, so fair-share survives control-plane crashes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/bytes.hpp"
#include "sim/hash.hpp"
#include "sim/types.hpp"
#include "svc/job.hpp"

namespace bg::svc {

/// QOS tier: strict priority bands. kHigh work may preempt kLow work;
/// within a band fair-share order decides.
enum class Qos : std::uint8_t { kLow, kNormal, kHigh };

constexpr const char* qosName(Qos q) {
  switch (q) {
    case Qos::kLow: return "low";
    case Qos::kNormal: return "normal";
    case Qos::kHigh: return "high";
  }
  return "?";
}

/// Static account configuration (SLURM association row). Accounts form
/// a forest: parent must be a lower-numbered account (or 0 = root), so
/// the share tree is acyclic by construction.
struct AccountSpec {
  std::string name;
  AccountId parent = 0;      // 0 = top level
  std::uint32_t shares = 1;  // relative weight among siblings
  Qos qos = Qos::kNormal;
  // Limits; 0 = unlimited.
  std::uint32_t maxNodes = 0;    // nodes held simultaneously
  std::uint32_t maxQueued = 0;   // jobs waiting (front-door admission)
  std::uint32_t maxRunning = 0;  // jobs running simultaneously
  /// May this account's running jobs be preempted by higher-QOS work?
  bool preemptable = true;
};

struct FairShareConfig {
  /// accounts[i] is AccountId i+1. Empty = accounting disabled
  /// (single-tenant; every hook is a no-op and no state is kept).
  std::vector<AccountSpec> accounts;
  /// Usage decay grid: each elapsed period multiplies every account's
  /// decayed usage by decayNumer / 2^decayShift (integer, bit-exact).
  sim::Cycle decayPeriodCycles = 2'000'000;
  std::uint64_t decayNumer = 7;
  std::uint32_t decayShift = 3;  // 7/8 per period: half-life ~5 periods
  bool enabled() const { return !accounts.empty(); }
};

/// Live per-account tallies. Counters are maintained by the service
/// node's queue/launch/finish hooks; usage is charged in node-cycles.
struct AccountUsage {
  std::uint64_t decayedUsage = 0;   // node-cycles on the decay grid
  std::uint64_t lifetimeUsage = 0;  // undecayed total (reporting)
  std::uint32_t queuedJobs = 0;
  std::uint32_t runningJobs = 0;
  std::uint32_t nodesInUse = 0;
  std::uint64_t jobsCompleted = 0;
  std::uint64_t jobsFailed = 0;
  std::uint64_t preemptions = 0;    // this account's jobs preempted
  std::uint64_t quotaRejects = 0;   // front-door bounces on maxQueued
};

class Accounting {
 public:
  explicit Accounting(FairShareConfig cfg = {});

  bool enabled() const { return cfg_.enabled(); }
  std::size_t numAccounts() const { return cfg_.accounts.size(); }
  const FairShareConfig& config() const { return cfg_; }
  /// nullptr for id 0 or out of range.
  const AccountSpec* spec(AccountId id) const;
  const AccountUsage& usage(AccountId id) const;

  // Queue/launch/finish hooks (all no-ops when disabled or id is 0
  // or out of range — stray ids never touch state).
  void onQueued(AccountId id);
  void onDequeued(AccountId id);
  void onLaunch(AccountId id, int nodes);
  /// A running job released its nodes (finish, kill, preempt): drop
  /// the running tallies and charge `nodeCycles` of decayed +
  /// lifetime usage. Decay is advanced to `now` first, so the charge
  /// lands exactly on the epoch grid regardless of caller cadence.
  void onStop(AccountId id, int nodes, std::uint64_t nodeCycles,
              sim::Cycle now);
  void onCompleted(AccountId id, bool ok);
  void onPreempted(AccountId id);
  void onQuotaReject(AccountId id);

  /// Advance the decay grid to `now`. Idempotent and composable: two
  /// calls at t1 < t2 leave the same state as one call at t2, so
  /// callers may decay opportunistically (scheduling rounds, metrics).
  void decayTo(sim::Cycle now);

  /// Front-door admission: false when the account's maxQueued is
  /// reached (counting jobs already queued on the scheduler; the
  /// caller adds its own not-yet-flushed batch).
  bool admitQueued(AccountId id, std::uint32_t extraQueued = 0) const;

  /// Hierarchical fair-share priority (higher = more deserving):
  /// product down the share tree of entitled-share vs observed-usage
  /// ratios, in fixed-point integer arithmetic. Deterministic by
  /// construction; ties are broken by the caller (FIFO order).
  std::uint64_t fairShareScore(AccountId id) const;

  /// FNV digest over every account's spec-relevant tallies and the
  /// decay epoch — the checkpoint round-trip witness.
  std::uint64_t stateDigest() const;

  void saveTo(sim::ByteWriter& w) const;
  bool loadFrom(sim::ByteReader& r);

 private:
  bool valid(AccountId id) const {
    return id >= 1 && id <= cfg_.accounts.size();
  }
  AccountUsage& at(AccountId id) {
    return usage_[static_cast<std::size_t>(id - 1)];
  }
  const AccountUsage& at(AccountId id) const {
    return usage_[static_cast<std::size_t>(id - 1)];
  }
  /// Decayed usage of the subtree rooted at id (own + descendants).
  std::uint64_t subtreeUsage(AccountId id) const;

  FairShareConfig cfg_;
  std::vector<AccountUsage> usage_;  // parallel to cfg_.accounts
  /// Epochs (now / decayPeriodCycles) already applied.
  std::uint64_t decayEpoch_ = 0;
  static const AccountUsage kZeroUsage;
};

}  // namespace bg::svc
