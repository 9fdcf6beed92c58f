// Metrics surface of the service node: scalar structs for tests and a
// JSON projection for the bench trajectory (bench_jobstream --json).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hpp"
#include "sim/types.hpp"
#include "svc/counters.hpp"

namespace bg::svc {

/// Per-account slice of the multi-tenant plane (empty vector when no
/// accounts are configured).
struct AccountMetrics {
  std::string name;
  const char* qos = "normal";
  std::uint32_t shares = 1;
  std::uint32_t queuedJobs = 0;
  std::uint32_t runningJobs = 0;
  std::uint32_t nodesInUse = 0;
  std::uint64_t decayedUsage = 0;   // node-cycles after decay
  std::uint64_t lifetimeUsage = 0;  // undecayed node-cycles
  std::uint64_t jobsCompleted = 0;
  std::uint64_t jobsFailed = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t quotaRejects = 0;
  std::uint64_t fairShareScore = 0;

  sim::Json toJson() const {
    sim::Json a = sim::Json::object();
    a.set("name", name);
    a.set("qos", qos);
    a.set("shares", static_cast<std::uint64_t>(shares));
    a.set("queued_jobs", static_cast<std::uint64_t>(queuedJobs));
    a.set("running_jobs", static_cast<std::uint64_t>(runningJobs));
    a.set("nodes_in_use", static_cast<std::uint64_t>(nodesInUse));
    a.set("decayed_usage", decayedUsage);
    a.set("lifetime_usage", lifetimeUsage);
    a.set("jobs_completed", jobsCompleted);
    a.set("jobs_failed", jobsFailed);
    a.set("preemptions", preemptions);
    a.set("quota_rejects", quotaRejects);
    a.set("fair_share_score", fairShareScore);
    return a;
  }
};

struct SvcMetrics {
  // Job flow.
  std::uint64_t jobsSubmitted = 0;
  std::uint64_t jobsCompleted = 0;
  std::uint64_t jobsFailed = 0;
  std::uint64_t jobsCancelled = 0;  // pulled from queue via front door

  // Time base.
  sim::Cycle elapsedCycles = 0;
  double elapsedSeconds = 0;  // at the simulated clock rate
  double jobsPerSecond = 0;   // completed / elapsedSeconds

  // Queue wait: submit -> first launch, over started jobs.
  double meanQueueWaitCycles = 0;
  std::uint64_t maxQueueWaitCycles = 0;

  // Node usage.
  int nodes = 0;
  double utilization = 0;  // busy node-cycles / (nodes * elapsed)

  // The service node's persisted counters (retries, every fault
  // plane's dispositions, checkpoint windows, migrations).
  SvcCounters counters;
  std::uint64_t count(SvcCounter c) const { return counters[c]; }
  /// Fatal RAS -> victim job requeued, over fatals that had a victim.
  double meanRequeueCycles() const {
    const std::uint64_t n = count(SvcCounter::kRequeueCount);
    return n > 0 ? static_cast<double>(
                       count(SvcCounter::kRequeueLatencyTotal)) /
                       static_cast<double>(n)
                 : 0;
  }

  std::uint64_t hangsDetected = 0;  // heartbeat watchdog declarations
  std::vector<AccountMetrics> accounts;  // multi-tenant plane

  // Torus hard-fault plane: the fabric's deterministic route-around.
  std::uint64_t linkSickNodes = 0;     // nodes flagged by the predictor
  std::uint64_t linkDetours = 0;       // transfers routed around a death
  std::uint64_t linkDetourHops = 0;    // extra hops beyond minimal routes
  std::uint64_t linkUnroutable = 0;    // transfers with no surviving path
  std::uint64_t linkCrcRetries = 0;    // retransmit rounds on degraded links

  // Control-plane failover (filled by ServiceHost).
  std::uint64_t serviceCrashes = 0;
  std::uint64_t serviceRestarts = 0;
  std::uint64_t checkpointSaves = 0;
  std::uint64_t checkpointBytes = 0;  // last snapshot or record size
  std::uint64_t checkpointFailedSaves = 0;  // saves that did not persist

  // RAS flow.
  std::uint64_t rasInfo = 0;
  std::uint64_t rasWarn = 0;
  std::uint64_t rasError = 0;
  std::uint64_t rasFatal = 0;
  std::uint64_t rasThrottled = 0;
  std::uint64_t rasDropped = 0;
  /// Entries the per-kernel bounded RAS rings overwrote (whether or
  /// not the aggregator had consumed them) — the raw overflow count,
  /// distinct from rasDropped's "lost before the service node saw
  /// them" accounting.
  std::uint64_t rasRingDropped = 0;
  /// Aggregator tallies per RAS code (stable short name, count).
  std::vector<std::pair<const char*, std::uint64_t>> rasByCode;

  // Determinism witness: FNV digest of every scheduling decision.
  std::uint64_t scheduleHash = 0;

  sim::Json toJson() const {
    sim::Json j = sim::Json::object();
    j.set("jobs_submitted", jobsSubmitted);
    j.set("jobs_completed", jobsCompleted);
    j.set("jobs_failed", jobsFailed);
    j.set("jobs_cancelled", jobsCancelled);
    j.set("job_retries", count(SvcCounter::kRetries));
    j.set("elapsed_cycles", elapsedCycles);
    j.set("elapsed_seconds", elapsedSeconds);
    j.set("jobs_per_second", jobsPerSecond);
    j.set("mean_queue_wait_cycles", meanQueueWaitCycles);
    j.set("max_queue_wait_cycles", maxQueueWaitCycles);
    j.set("nodes", static_cast<std::int64_t>(nodes));
    j.set("utilization", utilization);
    j.set("node_failures", count(SvcCounter::kNodeFailures));
    j.set("predictive_drains", count(SvcCounter::kPredictiveDrains));
    j.set("io_failovers", count(SvcCounter::kIoFailovers));
    j.set("io_reboots", count(SvcCounter::kIoReboots));
    sim::Json fo = sim::Json::object();
    fo.set("service_crashes", serviceCrashes);
    fo.set("service_restarts", serviceRestarts);
    fo.set("checkpoint_saves", checkpointSaves);
    fo.set("checkpoint_bytes", checkpointBytes);
    fo.set("failed_saves", checkpointFailedSaves);
    j.set("failover", std::move(fo));
    sim::Json ras = sim::Json::object();
    ras.set("info", rasInfo);
    ras.set("warn", rasWarn);
    ras.set("error", rasError);
    ras.set("fatal", rasFatal);
    ras.set("throttled", rasThrottled);
    ras.set("dropped", rasDropped);
    ras.set("ring_dropped", rasRingDropped);
    sim::Json byCode = sim::Json::object();
    for (const auto& [name, count] : rasByCode) byCode.set(name, count);
    ras.set("by_code", std::move(byCode));
    j.set("ras", std::move(ras));
    sim::Json fault = sim::Json::object();
    fault.set("hangs_detected", hangsDetected);
    fault.set("nodes_retired", count(SvcCounter::kNodesRetired));
    fault.set("mean_requeue_cycles", meanRequeueCycles());
    fault.set("requeue_samples", count(SvcCounter::kRequeueCount));
    j.set("fault", std::move(fault));
    sim::Json ck = sim::Json::object();
    ck.set("requests", count(SvcCounter::kCkptRequests));
    ck.set("commits", count(SvcCounter::kCkptCommits));
    ck.set("fallbacks", count(SvcCounter::kCkptFallbacks));
    ck.set("resumes", count(SvcCounter::kCkptResumes));
    j.set("ckpt", std::move(ck));
    sim::Json mig = sim::Json::object();
    mig.set("requests", count(SvcCounter::kMigrateRequests));
    mig.set("commits", count(SvcCounter::kMigrateCommits));
    mig.set("fallbacks", count(SvcCounter::kMigrateFallbacks));
    mig.set("migrations", count(SvcCounter::kMigrations));
    mig.set("degraded_jobs", count(SvcCounter::kDegradedJobs));
    mig.set("cycles_saved", count(SvcCounter::kMigrateCyclesSaved));
    mig.set("link_sick_nodes", linkSickNodes);
    mig.set("detours", linkDetours);
    mig.set("detour_hops", linkDetourHops);
    mig.set("unroutable", linkUnroutable);
    mig.set("crc_retries", linkCrcRetries);
    j.set("migration", std::move(mig));
    if (!accounts.empty()) {
      sim::Json fs = sim::Json::object();
      fs.set("preemptions", count(SvcCounter::kPreemptions));
      sim::Json arr = sim::Json::array();
      for (const AccountMetrics& a : accounts) arr.push(a.toJson());
      fs.set("accounts", std::move(arr));
      j.set("fairshare", std::move(fs));
    }
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(scheduleHash));
    j.set("schedule_hash", hash);
    return j;
  }
};

}  // namespace bg::svc
