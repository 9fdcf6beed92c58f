// Multi-tenant fair-share scheduling (FairSharePolicy).
//
// Priority order is (QOS band, fair-share score, FIFO index): strict
// QOS bands like SLURM's QOS priority tiers, and within a band the
// hierarchical decayed-usage score computed by svc::Accounting — an
// account running below its configured share outranks one running
// above it. Per-account maxRunning/maxNodes are enforced at select
// time; capped jobs are skipped without blocking anyone (no amount of
// waiting frees an account limit). Capacity blocking is per kernel
// kind and strict: once the best-ranked job of a kind cannot fit,
// lower-ranked jobs of that kind stop launching, so returning nodes
// flow to the blocked job and starvation-freedom holds.
//
// Preemption: when the best capacity-blocked job cannot be satisfied
// by ready nodes plus nodes already on their way back (draining /
// repairing / booting), running jobs from preemptable accounts in
// strictly lower QOS bands are killed and requeued — least-deserving
// first, youngest first — but only when the freed nodes actually make
// the blocked job fit, so no work dies for nothing. Everything is
// integer comparisons over the SchedContext snapshot: bit-identical
// across replays.
#include "svc/scheduler.hpp"

#include <algorithm>
#include <array>

namespace bg::svc {
namespace {

constexpr std::size_t kKinds = 2;

std::size_t kindIdx(rt::KernelKind k) {
  return k == rt::KernelKind::kCnk ? 0 : 1;
}

struct JobRank {
  Qos qos = Qos::kNormal;
  std::uint64_t score = 0;
  bool preemptable = false;
};

JobRank rankOf(const SchedContext& ctx, AccountId id) {
  JobRank rk;
  if (id >= 1 && id <= ctx.accounts.size()) {
    const AccountSchedView& v = ctx.accounts[static_cast<std::size_t>(id - 1)];
    rk.qos = v.qos;
    rk.score = v.fairShareScore;
    rk.preemptable = v.preemptable;
  } else {
    // Unaccounted job under a multi-tenant config: normal band, middle
    // score, never a preemption victim.
    rk.score = std::uint64_t{1} << 16;
  }
  return rk;
}

/// Queue indices in priority order: QOS desc, score desc, FIFO asc.
std::vector<std::size_t> priorityOrder(const SchedContext& ctx) {
  std::vector<std::size_t> order(ctx.queue.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const JobRank ra = rankOf(ctx, ctx.queue[a]->desc.account);
                     const JobRank rb = rankOf(ctx, ctx.queue[b]->desc.account);
                     if (ra.qos != rb.qos) return ra.qos > rb.qos;
                     if (ra.score != rb.score) return ra.score > rb.score;
                     return a < b;
                   });
  return order;
}

}  // namespace

std::vector<std::size_t> FairSharePolicy::select(const SchedContext& ctx) {
  std::vector<std::size_t> out;
  std::array<int, kKinds> avail = {ctx.readyNodes(rt::KernelKind::kCnk),
                                   ctx.readyNodes(rt::KernelKind::kFwk)};
  std::array<bool, kKinds> blocked = {false, false};
  std::vector<AccountTally> tally(ctx.accounts.size());
  for (std::size_t i : priorityOrder(ctx)) {
    const JobRecord* j = ctx.queue[i];
    if (!accountAdmits(ctx, *j, tally)) continue;
    const std::size_t k = kindIdx(j->desc.kernel);
    if (blocked[k]) continue;
    if (j->desc.nodes > avail[k]) {
      // Strict priority: hold this kind's remaining capacity for the
      // best-ranked job that needs it instead of giving it away.
      blocked[k] = true;
      continue;
    }
    avail[k] -= j->desc.nodes;
    out.push_back(i);
    const AccountId id = j->desc.account;
    if (id >= 1 && id <= ctx.accounts.size()) {
      AccountTally& t = tally[static_cast<std::size_t>(id - 1)];
      ++t.runningJobs;
      t.nodesInUse += static_cast<std::uint32_t>(j->desc.nodes);
    }
  }
  return out;
}

std::vector<JobId> FairSharePolicy::selectPreemptions(
    const SchedContext& ctx) {
  if (ctx.accounts.empty() || ctx.queue.empty()) return {};

  // Replay the select walk to find the best-ranked job each kind
  // blocks on, with the capacity higher-ranked launches would consume
  // already subtracted.
  std::array<int, kKinds> avail = {ctx.readyNodes(rt::KernelKind::kCnk),
                                   ctx.readyNodes(rt::KernelKind::kFwk)};
  std::array<bool, kKinds> blockedKind = {false, false};
  std::vector<AccountTally> tally(ctx.accounts.size());
  const JobRecord* starved = nullptr;
  for (std::size_t i : priorityOrder(ctx)) {
    const JobRecord* j = ctx.queue[i];
    if (!accountAdmits(ctx, *j, tally)) continue;
    const std::size_t k = kindIdx(j->desc.kernel);
    if (blockedKind[k]) continue;
    if (j->desc.nodes > avail[k]) {
      blockedKind[k] = true;
      if (starved == nullptr) starved = j;  // best-ranked blocker wins
      continue;
    }
    avail[k] -= j->desc.nodes;
    const AccountId id = j->desc.account;
    if (id >= 1 && id <= ctx.accounts.size()) {
      AccountTally& t = tally[static_cast<std::size_t>(id - 1)];
      ++t.runningJobs;
      t.nodesInUse += static_cast<std::uint32_t>(j->desc.nodes);
    }
  }
  if (starved == nullptr) return {};

  const JobRank want = rankOf(ctx, starved->desc.account);
  const std::size_t sk = kindIdx(starved->desc.kernel);
  // Nodes already coming back on their own (draining victims of an
  // earlier preemption, repairs, boots): preempting more while these
  // are in flight would double-kill for the same shortfall.
  const int incoming =
      ctx.inFlightNodes ? ctx.inFlightNodes(starved->desc.kernel) : 0;
  int need = starved->desc.nodes - avail[sk] - incoming;
  if (need <= 0) return {};

  // Victim pool: running jobs of the starved kind, preemptable
  // account, strictly lower QOS band. Least deserving (lowest QOS,
  // lowest score), youngest, highest id first — determinstic total
  // order.
  std::vector<const RunningJobInfo*> pool;
  for (const RunningJobInfo& r : ctx.running) {
    if (kindIdx(r.kernel) != sk) continue;
    const JobRank rk = rankOf(ctx, r.account);
    if (!rk.preemptable || rk.qos >= want.qos) continue;
    pool.push_back(&r);
  }
  std::sort(pool.begin(), pool.end(),
            [&](const RunningJobInfo* a, const RunningJobInfo* b) {
              const JobRank ra = rankOf(ctx, a->account);
              const JobRank rb = rankOf(ctx, b->account);
              if (ra.qos != rb.qos) return ra.qos < rb.qos;
              if (ra.score != rb.score) return ra.score < rb.score;
              if (a->started != b->started) return a->started > b->started;
              return a->id > b->id;
            });
  std::vector<JobId> victims;
  int freed = 0;
  for (const RunningJobInfo* r : pool) {
    if (freed >= need) break;
    victims.push_back(r->id);
    freed += r->nodes;
  }
  // Preempt only when it actually unblocks the starved job; otherwise
  // the kills would be pure waste.
  if (freed < need) return {};
  return victims;
}

}  // namespace bg::svc
