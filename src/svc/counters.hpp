// The service node's persisted counters as one table.
//
// Every u64 the control plane counts and carries across a restart lives
// in one array indexed by SvcCounter. The service node, its checkpoint
// header and its metrics snapshot each hold one such table, so a new
// counter is one enumerator plus its JSON key. The image stores the
// values in enum order with no names: a name per counter would add
// ~300 bytes to every journal record, and bench/diff_runs.py already
// diffs any JSON leaf by its path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace bg::svc {

/// Image order: append only, and bump SvcCheckpoint::kVersion when the
/// list changes.
enum class SvcCounter : std::uint8_t {
  kRetries,              // relaunches through the bounded-retry path
  kNodeFailures,         // fatal node events handled
  kPredictiveDrains,     // warn-storm drains before fatal
  kIoFailovers,          // CIOD deaths re-homed to a spare
  kIoReboots,            // CIOD deaths repaired in place
  kNodesRetired,         // failure budgets blown
  kRequeueLatencyTotal,  // fatal RAS cycle -> victim disposition, summed
  kRequeueCount,         // fatals that had a victim job
  kPreemptions,          // jobs killed and requeued for higher-QOS work
  kCkptRequests,         // preemptions that asked for a checkpoint
  kCkptCommits,          // preempt windows every node committed
  kCkptFallbacks,        // preempt windows failed -> scratch requeue
  kCkptResumes,          // launches booted into restore
  kMigrateRequests,      // link-sick escalations that asked
  kMigrateCommits,       // migrate windows every node committed
  kMigrateFallbacks,     // migrate windows failed -> job stays put
  kMigrations,           // jobs requeued onto healthy nodes
  kDegradedJobs,         // left running in route-around mode
  kMigrateCyclesSaved,   // progress preserved vs a scratch requeue
};
inline constexpr std::size_t kNumSvcCounters =
    static_cast<std::size_t>(SvcCounter::kMigrateCyclesSaved) + 1;

struct SvcCounters {
  std::array<std::uint64_t, kNumSvcCounters> values{};

  std::uint64_t& operator[](SvcCounter c) {
    return values[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](SvcCounter c) const {
    return values[static_cast<std::size_t>(c)];
  }
};

}  // namespace bg::svc
