// Pluggable job-scheduling policies for the service node.
//
// Ekiben-style: the queue discipline is a strategy object, not baked
// into the control loop. Three disciplines ship here: strict FIFO
// (head of line blocks everyone — what early Blue Gene ran per
// partition), EASY backfill (later jobs may jump ahead if they
// provably do not delay the blocked head's reservation), and
// multi-tenant fair-share (QOS bands + SLURM-style decayed-usage
// priority + per-account limits + preemption, fed by svc::Accounting
// through SchedContext).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/app.hpp"
#include "sim/types.hpp"
#include "svc/accounting.hpp"
#include "svc/job.hpp"

namespace bg::svc {

/// A running job as the policy sees it: enough to predict when its
/// nodes come back — and, under multi-tenancy, whose it is (the
/// fair-share policy picks preemption victims from this view).
struct RunningJobInfo {
  JobId id = 0;
  rt::KernelKind kernel = rt::KernelKind::kCnk;
  int nodes = 0;
  sim::Cycle estEnd = 0;  // startCycle + estCycles
  sim::Cycle started = 0;
  AccountId account = 0;  // 0 = unaccounted (single-tenant)
};

/// Per-account slice of a scheduling round: static policy inputs plus
/// the live tallies a policy needs to honor limits and rank accounts.
struct AccountSchedView {
  AccountId id = 0;
  Qos qos = Qos::kNormal;
  std::uint32_t maxNodes = 0;    // 0 = unlimited
  std::uint32_t maxRunning = 0;  // 0 = unlimited
  std::uint32_t runningJobs = 0;
  std::uint32_t nodesInUse = 0;
  /// Hierarchical fair-share priority at this round's usage (higher =
  /// more deserving); see Accounting::fairShareScore.
  std::uint64_t fairShareScore = 0;
  bool preemptable = true;
};

/// Immutable snapshot handed to a policy each scheduling round.
struct SchedContext {
  sim::Cycle now = 0;
  /// Queued jobs, FIFO order (index 0 = head).
  std::vector<const JobRecord*> queue;
  /// Ready (idle, booted) node count per kernel kind.
  std::function<int(rt::KernelKind)> readyNodes;
  std::vector<RunningJobInfo> running;
  /// Multi-tenant view, indexed by AccountId - 1; empty when the
  /// service node has no accounts configured (single-tenant — the
  /// FIFO/backfill fast paths never touch it).
  std::vector<AccountSchedView> accounts;
  /// Nodes per kind that are mid-drain/repair/boot and will return to
  /// service on their own; preemption must count them or it keeps
  /// killing work while a previous victim's nodes are still draining.
  std::function<int(rt::KernelKind)> inFlightNodes;
};

/// Running tally of what select() has already committed against each
/// account this round (parallel to SchedContext::accounts).
struct AccountTally {
  std::uint32_t runningJobs = 0;
  std::uint32_t nodesInUse = 0;
};

/// Would launching `j` now keep its account inside maxRunning /
/// maxNodes, given this round's already-committed tally? Always true
/// for unaccounted jobs or when no accounts are configured.
bool accountAdmits(const SchedContext& ctx, const JobRecord& j,
                   const std::vector<AccountTally>& tally);

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;
  virtual const char* name() const = 0;
  /// Queue indices to launch this round, in launch order. The control
  /// loop launches them one by one and re-checks actual node
  /// availability at each launch.
  virtual std::vector<std::size_t> select(const SchedContext& ctx) = 0;
  /// Running jobs to preempt (kill + requeue, no retry charged) before
  /// this round's select(). Policies without preemption keep the
  /// default empty answer.
  virtual std::vector<JobId> selectPreemptions(const SchedContext& ctx) {
    (void)ctx;
    return {};
  }
};

/// Strict FIFO: launch from the head while it fits; the first job that
/// does not fit blocks the rest of the queue.
class FifoPolicy final : public SchedulerPolicy {
 public:
  const char* name() const override { return "fifo"; }
  std::vector<std::size_t> select(const SchedContext& ctx) override;
};

/// EASY backfill: like FIFO, but when the head does not fit, compute
/// the earliest cycle its reservation can be met (from running jobs'
/// estimated ends) and let later jobs run now if they either finish by
/// then (by their own estimate) or use only nodes the reservation does
/// not need.
class BackfillPolicy final : public SchedulerPolicy {
 public:
  const char* name() const override { return "backfill"; }
  std::vector<std::size_t> select(const SchedContext& ctx) override;
};

/// Multi-tenant fair-share: strict QOS bands, hierarchical fair-share
/// order within a band (SLURM-style decayed-usage priority via
/// SchedContext::accounts), per-account maxRunning/maxNodes enforced at
/// select time, and preemption of lower-QOS running work when a
/// higher-QOS job is starved of nodes.
class FairSharePolicy final : public SchedulerPolicy {
 public:
  const char* name() const override { return "fairshare"; }
  std::vector<std::size_t> select(const SchedContext& ctx) override;
  std::vector<JobId> selectPreemptions(const SchedContext& ctx) override;
};

enum class SchedPolicyKind : std::uint8_t { kFifo, kBackfill, kFairShare };

std::unique_ptr<SchedulerPolicy> makePolicy(SchedPolicyKind kind);

}  // namespace bg::svc
