// The service node: Blue Gene's control system in miniature.
//
// The paper's CNK is deliberately thin because a separate service node
// does the heavy lifting — booting partitions, launching jobs,
// collecting RAS events, taking failed nodes out of service (§III,
// §IV). This class reproduces that division of labor over a simulated
// rt::Cluster: a partition manager tracks per-node lifecycle, a
// pluggable scheduler (FIFO / EASY backfill) drains a job queue onto
// free node blocks, and a RAS aggregator fans the per-kernel logs into
// one stream whose fatal events drive drain/retry/reboot and whose
// kWarn storms drive predictive drain (retire a sick node before it
// goes fatal).
//
// The control plane itself is crash-safe: with a CheckpointStore
// attached it persists its whole state (queue, running-job leases,
// node lifecycles with pending deadlines, RAS cursors, schedule hash)
// into a persistent-memory region — a snapshot, then one journal
// record per save holding what changed — and restartFrom() rebuilds a
// service node mid-stream from the image they replay to. Every event
// the node schedules is epoch-guarded, so events belonging to a
// crashed instance die with it instead of firing into freed memory.
//
// Everything runs as events on the cluster's deterministic engine, so
// a whole job stream — including injected node failures and injected
// control-plane crashes — replays cycle-exactly from a seed;
// scheduleHash() is the witness.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runtime/app.hpp"
#include "sim/hash.hpp"
#include "svc/checkpoint.hpp"
#include "svc/job.hpp"
#include "svc/metrics.hpp"
#include "svc/partition.hpp"
#include "svc/ras.hpp"
#include "svc/scheduler.hpp"
#include "svc/watchdog.hpp"

namespace bg::svc {

class CheckpointStore;

struct ServiceNodeConfig {
  SchedPolicyKind policy = SchedPolicyKind::kBackfill;
  /// Control-loop cadence: RAS polling, completion checks, and
  /// scheduling rounds happen every this many cycles.
  sim::Cycle pollIntervalCycles = 50'000;
  /// Grace period a draining node waits before it is scrubbed and
  /// returned to service (lets in-flight events for killed threads
  /// land while the kernel still owns them).
  sim::Cycle drainCycles = 200'000;
  /// Repair time for a node lost to a fatal RAS event, after which it
  /// is reset and rebooted.
  sim::Cycle repairCycles = 2'000'000;
  /// Checkpoint cadence when a CheckpointStore is attached: 1 writes
  /// through after every state-mutating event (crash-transparent
  /// restart); N > 1 checkpoints every Nth control-loop pump only
  /// (cheaper, restart may requeue work done since); 0 disables.
  std::uint32_t checkpointEveryPumps = 1;
  /// Heartbeat watchdog: a kRunning node whose progress counter (sum
  /// of per-core busy cycles) freezes for this long is declared hung —
  /// a fatal kCoreHang RAS event is written through its kernel ring so
  /// it travels the same path a machine-check panic does. 0 disables
  /// the watchdog (and with it, every extra per-pump node scan).
  sim::Cycle hangTimeoutCycles = 0;
  /// Per-node failure budget: once a node's lifetime fatal count
  /// reaches this, it is retired (kRetired, out of service for good)
  /// instead of repaired and rebooted. 0 = unlimited, always repair.
  std::uint32_t nodeFailureBudget = 0;
  /// Multi-tenant accounts, fair-share decay, and preemption. Empty
  /// accounts = single-tenant: no accounting state, no new hash notes,
  /// schedules stay bit-identical to the pre-tenancy control plane.
  FairShareConfig fairshare;
  /// Checkpoint-then-preempt: when enabled, a preemption victim is
  /// first asked to checkpoint (every held CNK node cuts and commits
  /// an application image) and only then killed + requeued, so its
  /// relaunch resumes mid-stream instead of from scratch. If any node
  /// fails to commit by the deadline the preemption falls back to the
  /// plain kill-and-requeue path. Off by default: the request adds a
  /// hash note, so pinned fair-share schedules stay bit-identical.
  struct CkptConfig {
    bool onPreempt = false;
    sim::Cycle deadlineCycles = 400'000;
  } ckpt;
  /// RAS-driven checkpoint-then-migrate: when the link-health
  /// predictor declares a node link-sick (a dead link, or a CRC-retry
  /// storm crossing ras.linkSickThreshold), the job running there is
  /// asked to checkpoint and — if every node commits and healthy
  /// capacity exists — requeued onto a link-healthy node set, where it
  /// boots into restore. When the window fails or no healthy capacity
  /// is left, the job keeps running where it is: the fabric's
  /// deterministic route-around carries it at a latency penalty
  /// (degraded mode). Off by default; arming it adds hash notes, so
  /// pinned fault-free schedules stay bit-identical.
  struct MigrateConfig {
    bool enabled = false;
    sim::Cycle deadlineCycles = 400'000;
  } migrate;
  RasAggregatorConfig ras;
};

class ServiceNode {
 public:
  explicit ServiceNode(rt::Cluster& cluster, ServiceNodeConfig cfg = {},
                       CheckpointStore* store = nullptr);
  ~ServiceNode();

  /// Rebuild a control plane mid-stream from the store's latest
  /// checkpoint: jobs, queue order, node lifecycles, RAS cursors and
  /// the schedule hash all resume; pending drain/repair deadlines are
  /// re-armed at their original cycles; running jobs whose (node, pid)
  /// leases no longer verify against the kernels are requeued through
  /// the bounded-retry path. Returns nullptr when no valid checkpoint
  /// exists (caller cold-starts instead).
  static std::unique_ptr<ServiceNode> restartFrom(rt::Cluster& cluster,
                                                  ServiceNodeConfig cfg,
                                                  CheckpointStore& store);

  /// Enqueue a job; scheduling happens on the control loop. Returns
  /// the job id (ids start at 1).
  JobId submit(JobDesc desc);

  /// Enqueue a whole batch in one control-plane step: per-job hash
  /// notes are identical to N submit() calls at the same cycle, but
  /// the pump poke and (write-through) checkpoint happen once — the
  /// front door's amortization lever under burst (O(state) checkpoint
  /// cost per *batch*, not per request).
  std::vector<JobId> submitBatch(std::vector<JobDesc> descs);

  /// Cancel a job that is still waiting in the queue (front-door
  /// CANCEL). Returns false when the job is unknown or already left
  /// the queue (running/finished) — the caller reports "too late".
  bool cancelQueued(JobId id);

  /// Jobs waiting in the scheduler queue (admission-control input).
  std::size_t queueDepth() const { return queue_.size(); }

  /// Boot every not-yet-booted kernel (lifecycle reset → booting →
  /// ready) and start the control loop. Idempotent.
  void start();

  /// Drive the engine until the queue and all running jobs drain (and
  /// no node is mid-drain/repair). Returns false on event-budget
  /// exhaustion or a wedged queue (e.g. a job wider than the machine).
  /// Callers that schedule future submit events should drive the
  /// engine themselves and test drained() plus their own arrival
  /// bookkeeping.
  bool runUntilDrained(std::uint64_t maxEvents = 400'000'000);

  /// True when no job is queued or running and every node is parked in
  /// ready (no boot/drain/repair in flight).
  bool drained() const { return idle() && !anyNodeInFlight(); }

  /// Deterministic fault injection: at `atCycle` (absolute), report a
  /// fatal kNodeFailure on `node`. The control loop then kills the
  /// node's job, drains its partition, requeues the job (up to
  /// maxRetries), and repairs + reboots the node.
  void injectNodeFailure(int node, sim::Cycle atCycle);

  /// Nudge the control loop (schedules a pump if one is not already
  /// pending). External fault injectors call this after logging RAS
  /// events directly against kernels.
  void poke() {
    if (started_) schedulePump();
  }

  /// Force a checkpoint now (regardless of cadence). False when no
  /// store is attached or the save failed.
  bool checkpointNow();

  /// The full checkpoint image of the current state: what a snapshot
  /// holds, and what restore rebuilds from a snapshot plus journal.
  std::vector<std::byte> encodeImage();

  const JobRecord* job(JobId id) const;
  const std::vector<JobRecord>& jobs() const { return jobs_; }
  PartitionManager& partitions() { return parts_; }
  RasAggregator& ras() { return ras_; }
  const SchedulerPolicy& policy() const { return *policy_; }
  std::uint64_t predictiveDrains() const { return predictiveDrains_; }
  /// CIOD deaths resolved by re-homing the pset onto a spare I/O node
  /// (jobs keep running) vs. repaired in place (jobs requeued).
  std::uint64_t ioFailovers() const { return ioFailovers_; }
  std::uint64_t ioReboots() const { return ioReboots_; }
  /// Compute-node fault plane: hangs the heartbeat watchdog declared
  /// and nodes taken out of service for good by the failure budget.
  std::uint64_t hangsDetected() const { return watchdog_.hangsDetected(); }
  std::uint64_t nodesRetired() const { return nodesRetired_; }
  /// Multi-tenant plane: per-account usage/limit state and the count
  /// of jobs killed + requeued to make room for higher-QOS work.
  Accounting& accounting() { return accounting_; }
  const Accounting& accounting() const { return accounting_; }
  std::uint64_t preemptions() const { return preemptions_; }
  /// Checkpoint-then-preempt accounting: requests issued, requests
  /// every node committed, fallbacks to kill-and-requeue (deadline or
  /// commit failure), and launches that booted into restore.
  std::uint64_t ckptRequests() const { return ckptRequests_; }
  std::uint64_t ckptCommits() const { return ckptCommits_; }
  std::uint64_t ckptFallbacks() const { return ckptFallbacks_; }
  std::uint64_t ckptResumes() const { return ckptResumes_; }
  /// Torus hard-fault plane: checkpoint-then-migrate accounting plus
  /// the link-sick node set the allocator steers around.
  std::uint64_t migrateRequests() const { return migrateRequests_; }
  std::uint64_t migrateCommits() const { return migrateCommits_; }
  std::uint64_t migrateFallbacks() const { return migrateFallbacks_; }
  std::uint64_t migrations() const { return migrations_; }
  std::uint64_t degradedJobs() const { return degradedJobs_; }
  std::uint64_t migrateCyclesSaved() const { return migrateCyclesSaved_; }
  bool linkSick(int node) const { return linkSick_.count(node) != 0; }
  std::size_t linkSickCount() const { return linkSick_.size(); }

  SvcMetrics metrics();
  /// FNV digest over every scheduling decision (submit / launch /
  /// complete / fail / retry / node transitions) with its cycle — two
  /// runs scheduled identically iff the hashes match. Restored across
  /// restartFrom(), so a crash-interrupted run keeps one continuous
  /// digest.
  std::uint64_t scheduleHash() const { return hash_.digest(); }
  /// Human-readable event log, one line per decision (jobstream_tour).
  const std::vector<std::string>& timeline() const { return timeline_; }

 private:
  sim::Engine& engine() { return cluster_.engine(); }

  /// Wrap an event so it dies with this instance: a crashed service
  /// node's pending pumps/timers must not fire into the replacement.
  std::function<void()> guarded(std::function<void()> fn);

  /// Shared body of submit()/submitBatch(): record + hash note + queue
  /// insert, with the pump poke and checkpoint left to the caller.
  JobId submitOne(JobDesc desc);

  void schedulePump();
  void schedulePumpAt(sim::Cycle due);
  void pump();
  /// Watchdog sweep over kRunning nodes; runs at the top of each pump
  /// so a declared hang is collected by the same pump's RAS poll.
  void scanHeartbeats();
  void pollCompletions();
  void trySchedule();
  bool launch(JobRecord& jr, const std::vector<int>& nodes);
  void finishJob(JobRecord& jr, bool ok, std::int64_t status);
  void onNodeFatal(int node, const kernel::RasEvent& e);
  void onWarnStorm(int node, sim::Cycle cycle);
  /// A compute node's kernel declared its I/O node dead (timeout
  /// storm). Fail over to a spare when one is left; otherwise requeue
  /// the pset's jobs, park its nodes, and repair the CIOD in place.
  void onIoNodeDead(int node, const kernel::RasEvent& e);
  void repairIoNode(int ioIdx);
  /// Take the job off a lost/draining partition and requeue it (or
  /// fail it once retries are exhausted). Shared by the fatal path,
  /// predictive drain, and restart reconciliation.
  void requeueOrFail(JobRecord& jr, sim::Cycle now);
  /// Preemption entry point: with ckpt.onPreempt set and the victim
  /// all-CNK, opens a checkpoint window (job keeps running while every
  /// held node cuts + commits an image) and defers the actual kill to
  /// onCkptAck/onCkptDeadline; otherwise kills and requeues directly.
  void preemptJob(JobRecord& jr, sim::Cycle now);
  /// The pre-checkpoint preemption body: kill, drain, requeue at the
  /// back of the queue with no retry budget consumed.
  void finishPreempt(JobRecord& jr, sim::Cycle now);
  void onCkptAck(JobId id, std::uint64_t token, bool ok);
  void onCkptDeadline(JobId id, std::uint64_t token);
  /// Link-health escalation: the RAS predictor declared `node`
  /// link-sick. Opens a checkpoint-then-migrate window for the job
  /// running there when migration is armed and healthy capacity
  /// exists; otherwise leaves the job running in degraded
  /// route-around mode.
  void onLinkSick(int node, sim::Cycle cycle, bool dead);
  void beginMigrate(JobRecord& jr, sim::Cycle now);
  void onMigrateAck(JobId id, std::uint64_t token, bool ok);
  void onMigrateDeadline(JobId id, std::uint64_t token);
  /// Commit succeeded: requeue the victim (no retry charge) so the
  /// relaunch restores onto healthy-preferred nodes.
  void finishMigrate(JobRecord& jr, sim::Cycle now);
  /// Service-node-originated migration RAS event (node -1 stream).
  void reportMigrateRas(kernel::RasEvent::Code code, JobId id);
  /// Accounting hook shared by every running-job-release path: charge
  /// decayed/lifetime usage for the attempt and drop running tallies.
  void chargeStopped(JobRecord& jr, sim::Cycle now);
  void drainHeldNodes(JobRecord& jr, sim::Cycle now, int skipNode);
  void scheduleDrainDone(int node, sim::Cycle due);
  void scheduleRepairDone(int node, sim::Cycle due);
  void drainDone(int node);
  void repairDone(int node);
  void bootNode(int node);
  /// Restart-only: poll a node whose boot was in flight when the
  /// previous instance crashed (its completion callback died).
  void watchOrphanBoot(int node);
  void killUserThreadsOn(int node);
  void scrubNode(int node);  // post-drain kernel cleanup (CNK unload)
  void note(const char* what, JobId id, sim::Cycle cycle,
            const std::vector<int>& nodes = {});
  /// Mutable access to a job; marks it for the next journal record.
  /// Every change to a job record goes through here, so read-only
  /// paths use job() instead.
  JobRecord* find(JobId id);
  bool idle() const;
  bool anyNodeInFlight() const;

  /// The checkpoint's header and tables (no jobs, queue or timeline).
  SvcCheckpoint checkpointHead();
  /// Append a journal record, or write a snapshot when nothing is
  /// journaled yet or the store asks for one.
  bool saveCheckpoint();
  /// Called after every pump per the cadence config.
  void checkpointAfterPump();
  /// Called after timer events (drain/repair/boot/submit) when running
  /// write-through (cadence 1), so no decision is ever lost.
  void checkpointWriteThrough();
  bool loadFrom(sim::ByteReader& r, CheckpointStore& store);

  rt::Cluster& cluster_;
  ServiceNodeConfig cfg_;
  PartitionManager parts_;
  RasAggregator ras_;
  Accounting accounting_;
  std::unique_ptr<SchedulerPolicy> policy_;
  CheckpointStore* store_ = nullptr;
  std::shared_ptr<bool> alive_;  // epoch token for guarded()
  std::vector<JobRecord> jobs_;   // indexed by id - 1
  std::deque<JobId> queue_;       // FIFO order
  std::vector<JobId> runningIds_;
  std::vector<PendingNodeOp> nodeOps_;  // armed drain/repair deadlines
  HeartbeatMonitor watchdog_;
  JobId nextId_ = 1;
  bool started_ = false;
  bool pumpScheduled_ = false;
  sim::Cycle pumpDue_ = 0;
  std::uint32_t pumpsSinceCkpt_ = 0;
  sim::Fnv1a hash_;
  std::vector<std::string> timeline_;
  /// What the store already holds, when known: false until this
  /// instance's first snapshot and after a failed save.
  bool journaled_ = false;
  JournalBase journalBase_;
  /// Jobs find() handed out since the last save (flag by id - 1).
  std::vector<char> dirty_;
  std::vector<JobId> dirtyIds_;
  std::uint64_t retries_ = 0;
  std::uint64_t failures_ = 0;  // node failures handled
  std::uint64_t predictiveDrains_ = 0;
  std::uint64_t ioFailovers_ = 0;
  std::uint64_t ioReboots_ = 0;
  std::uint64_t nodesRetired_ = 0;
  std::uint64_t preemptions_ = 0;
  /// Open checkpoint-then-preempt windows, keyed by victim job id. Not
  /// checkpointed: a control-plane crash mid-window simply loses the
  /// preemption decision (the job keeps running, its leases verify on
  /// restart, and the policy re-selects a victim on a later pump).
  struct PendingCkpt {
    int remaining = 0;          // node acks still outstanding
    bool failed = false;        // any node reported a failed commit
    std::uint64_t token = 0;    // invalidates stale acks/deadlines
  };
  std::map<JobId, PendingCkpt> pendingCkpts_;
  std::uint64_t ckptTokens_ = 0;
  std::uint64_t ckptRequests_ = 0;
  std::uint64_t ckptCommits_ = 0;
  std::uint64_t ckptFallbacks_ = 0;
  std::uint64_t ckptResumes_ = 0;
  /// Open checkpoint-then-migrate windows (same crash semantics as
  /// pendingCkpts_: a control-plane crash mid-window loses only the
  /// migration decision — the job keeps running and a later storm
  /// re-triggers the predictor).
  std::map<JobId, PendingCkpt> pendingMigrates_;
  /// Nodes the link-health predictor declared link-sick. Persisted
  /// (v6): allocation keeps preferring healthy nodes after a restart.
  std::set<int> linkSick_;
  std::uint64_t migrateRequests_ = 0;
  std::uint64_t migrateCommits_ = 0;
  std::uint64_t migrateFallbacks_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t degradedJobs_ = 0;
  std::uint64_t migrateCyclesSaved_ = 0;
  /// Mean-time-to-requeue accounting: fatal RAS event raised (its
  /// logged cycle) -> victim job back on the queue (or failed out).
  std::uint64_t requeueLatencyTotal_ = 0;
  std::uint64_t requeueCount_ = 0;
  /// Per-primary-I/O-node flag: an in-place repair is scheduled, so
  /// further kIoNodeDead reports for the same death are duplicates.
  std::vector<char> ioRepairPending_;
  sim::Cycle firstSubmit_ = 0;
  sim::Cycle lastEnd_ = 0;
};

}  // namespace bg::svc
