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
  std::uint64_t jobRetries = 0;     // relaunches after node loss

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
  std::uint64_t nodeFailures = 0;
  std::uint64_t predictiveDrains = 0;  // warn-storm drains before fatal
  std::uint64_t ioFailovers = 0;       // CIOD deaths re-homed to a spare
  std::uint64_t ioReboots = 0;         // CIOD deaths repaired in place

  // Compute-node fault plane.
  std::uint64_t hangsDetected = 0;   // heartbeat watchdog declarations
  std::uint64_t nodesRetired = 0;    // failure budgets blown
  double meanRequeueCycles = 0;      // fatal RAS -> victim job requeued
  std::uint64_t requeueSamples = 0;  // fatals that had a victim job

  // Multi-tenant plane.
  std::uint64_t preemptions = 0;  // jobs killed+requeued for QOS
  std::vector<AccountMetrics> accounts;

  // Application checkpoint/restart plane.
  std::uint64_t ckptRequests = 0;   // preemptions that asked for a ckpt
  std::uint64_t ckptCommits = 0;    // requests every node committed
  std::uint64_t ckptFallbacks = 0;  // deadline/fault -> scratch requeue
  std::uint64_t ckptResumes = 0;    // launches booted into restore

  // Torus hard-fault plane: RAS-driven checkpoint-migrate and the
  // fabric's deterministic route-around.
  std::uint64_t migrateRequests = 0;   // link-sick escalations that asked
  std::uint64_t migrateCommits = 0;    // requests every node committed
  std::uint64_t migrateFallbacks = 0;  // window failed -> job stays put
  std::uint64_t migrations = 0;        // jobs requeued onto healthy nodes
  std::uint64_t degradedJobs = 0;      // left running in route-around mode
  std::uint64_t migrateCyclesSaved = 0;  // progress preserved vs scratch
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
    j.set("job_retries", jobRetries);
    j.set("elapsed_cycles", elapsedCycles);
    j.set("elapsed_seconds", elapsedSeconds);
    j.set("jobs_per_second", jobsPerSecond);
    j.set("mean_queue_wait_cycles", meanQueueWaitCycles);
    j.set("max_queue_wait_cycles", maxQueueWaitCycles);
    j.set("nodes", static_cast<std::int64_t>(nodes));
    j.set("utilization", utilization);
    j.set("node_failures", nodeFailures);
    j.set("predictive_drains", predictiveDrains);
    j.set("io_failovers", ioFailovers);
    j.set("io_reboots", ioReboots);
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
    fault.set("nodes_retired", nodesRetired);
    fault.set("mean_requeue_cycles", meanRequeueCycles);
    fault.set("requeue_samples", requeueSamples);
    j.set("fault", std::move(fault));
    sim::Json ck = sim::Json::object();
    ck.set("requests", ckptRequests);
    ck.set("commits", ckptCommits);
    ck.set("fallbacks", ckptFallbacks);
    ck.set("resumes", ckptResumes);
    j.set("ckpt", std::move(ck));
    sim::Json mig = sim::Json::object();
    mig.set("requests", migrateRequests);
    mig.set("commits", migrateCommits);
    mig.set("fallbacks", migrateFallbacks);
    mig.set("migrations", migrations);
    mig.set("degraded_jobs", degradedJobs);
    mig.set("cycles_saved", migrateCyclesSaved);
    mig.set("link_sick_nodes", linkSickNodes);
    mig.set("detours", linkDetours);
    mig.set("detour_hops", linkDetourHops);
    mig.set("unroutable", linkUnroutable);
    mig.set("crc_retries", linkCrcRetries);
    j.set("migration", std::move(mig));
    if (!accounts.empty()) {
      sim::Json fs = sim::Json::object();
      fs.set("preemptions", preemptions);
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
