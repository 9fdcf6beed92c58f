// Service-node job model: what users submit to the control system and
// what the scheduler tracks per job. On Blue Gene the service node —
// not the compute kernel — owns job state (paper §III, §IV); CNK only
// ever sees one JobSpec at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kernel/elf.hpp"
#include "runtime/app.hpp"
#include "sim/types.hpp"

namespace bg::svc {

using JobId = std::uint32_t;

/// Account handle stamped on jobs by the front door (mapped from the
/// requesting clientId). 0 = unaccounted single-tenant default; real
/// accounts are defined in svc::FairShareConfig.
using AccountId = std::uint32_t;

/// A job as submitted: which kernel personality it needs (CNK or the
/// FWK baseline — MultiK-style per-job kernel selection), how many
/// nodes, and the program to run on each of them.
struct JobDesc {
  std::string name;
  rt::KernelKind kernel = rt::KernelKind::kCnk;
  int nodes = 1;      // partition width
  int processes = 1;  // per node: 1 (SMP), 2 (DUAL), 4 (VN)
  std::shared_ptr<kernel::ElfImage> exe;
  std::vector<std::shared_ptr<kernel::ElfImage>> libs;
  std::uint64_t sharedMemBytes = 0;
  /// User-declared runtime estimate; the backfill policy trusts it the
  /// way LoadLeveler/SLURM trust wall-clock limits.
  sim::Cycle estCycles = 1'000'000;
  /// Relaunches allowed after the job loses a node (drain mid-run).
  int maxRetries = 1;
  /// Owning account for fair-share/limits; 0 = unaccounted.
  AccountId account = 0;
};

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kCompleted,
  kFailed,     // nonzero exit, or retries exhausted after node loss
  kCancelled,  // pulled from the queue by a front-door CANCEL
};

/// Scheduler-side record for one submitted job.
struct JobRecord {
  JobId id = 0;
  JobDesc desc;
  JobState state = JobState::kQueued;
  sim::Cycle submitCycle = 0;
  sim::Cycle firstStartCycle = 0;  // first launch (queue-wait metric)
  sim::Cycle startCycle = 0;       // most recent (re)launch
  sim::Cycle endCycle = 0;
  int attempts = 0;  // launches so far (1 = never retried)
  std::vector<int> nodesHeld;
  /// (node, pid) of every process this attempt created, so completion
  /// and exit status are judged against this job only — kernels keep
  /// earlier jobs' exited processes in their tables.
  std::vector<std::pair<int, std::uint32_t>> pids;
  std::int64_t exitStatus = 0;
  /// Times this job was preempted for higher-QOS work (preemption does
  /// not charge the maxRetries budget; this counts separately).
  int preemptCount = 0;
  /// Highest committed application-checkpoint sequence observed for
  /// this job (0 = none). A requeued job with ckptSeq > 0 boots into
  /// restore instead of running from scratch.
  std::uint32_t ckptSeq = 0;
};

}  // namespace bg::svc
