#include "svc/service_node.hpp"

#include <algorithm>
#include <cstdio>

#include "svc/failover.hpp"

namespace bg::svc {

ServiceNode::ServiceNode(rt::Cluster& cluster, ServiceNodeConfig cfg,
                         CheckpointStore* store)
    : cluster_(cluster),
      cfg_(cfg),
      parts_([&] {
        std::vector<rt::KernelKind> kinds;
        for (int n = 0; n < cluster.machine().numComputeNodes(); ++n) {
          kinds.push_back(cluster.kernelKindOn(n));
        }
        return kinds;
      }()),
      ras_(cfg.ras),
      accounting_(cfg.fairshare),
      policy_(cfg.policy == SchedPolicyKind::kFairShare
                  ? std::make_unique<FairSharePolicy>(cfg.fairshare.preemption)
                  : makePolicy(cfg.policy)),
      store_(store),
      alive_(std::make_shared<bool>(true)),
      nodeOps_(static_cast<std::size_t>(parts_.size())),
      watchdog_(parts_.size()),
      ioRepairPending_(
          static_cast<std::size_t>(cluster.machine().numIoNodes()), 0) {
  for (int n = 0; n < parts_.size(); ++n) {
    ras_.attach(n, &cluster_.kernelOn(n));
  }
  ras_.setFatalHandler(
      [this](int node, const kernel::RasEvent& e) { onNodeFatal(node, e); });
  ras_.setWarnStormHandler(
      [this](int node, sim::Cycle cycle) { onWarnStorm(node, cycle); });
  ras_.setIoDeadHandler(
      [this](int node, const kernel::RasEvent& e) { onIoNodeDead(node, e); });
  ras_.setLinkSickHandler([this](int node, sim::Cycle cycle, bool dead) {
    onLinkSick(node, cycle, dead);
  });
}

ServiceNode::~ServiceNode() = default;

std::function<void()> ServiceNode::guarded(std::function<void()> fn) {
  return [alive = std::weak_ptr<bool>(alive_), fn = std::move(fn)] {
    if (alive.expired()) return;  // instance crashed; event dies with it
    fn();
  };
}

JobId ServiceNode::submitOne(JobDesc desc) {
  if (store_ != nullptr) {
    // The executable "lives on the shared filesystem": checkpoints
    // reference it by name and a restarted control plane re-resolves
    // it from the catalog.
    store_->registerImage(desc.exe);
    for (const auto& lib : desc.libs) store_->registerImage(lib);
  }
  JobRecord jr;
  jr.id = nextId_++;
  jr.desc = std::move(desc);
  jr.submitCycle = engine().now();
  if (jobs_.empty()) firstSubmit_ = jr.submitCycle;
  note("submit", jr.id, jr.submitCycle);
  accounting_.onQueued(jr.desc.account);
  queue_.push_back(jr.id);
  jobs_.push_back(std::move(jr));
  return jobs_.back().id;
}

JobId ServiceNode::submit(JobDesc desc) {
  const JobId id = submitOne(std::move(desc));
  if (started_) schedulePump();
  checkpointWriteThrough();
  return id;
}

std::vector<JobId> ServiceNode::submitBatch(std::vector<JobDesc> descs) {
  std::vector<JobId> ids;
  ids.reserve(descs.size());
  for (JobDesc& d : descs) ids.push_back(submitOne(std::move(d)));
  if (ids.empty()) return ids;
  if (started_) schedulePump();
  checkpointWriteThrough();
  return ids;
}

bool ServiceNode::cancelQueued(JobId id) {
  JobRecord* jr = find(id);
  if (jr == nullptr || jr->state != JobState::kQueued) return false;
  const auto it = std::find(queue_.begin(), queue_.end(), id);
  if (it == queue_.end()) return false;  // mid-requeue edge: not ours
  queue_.erase(it);
  accounting_.onDequeued(jr->desc.account);
  const sim::Cycle now = engine().now();
  jr->state = JobState::kCancelled;
  jr->endCycle = now;
  lastEnd_ = now;
  note("cancel", id, now);
  checkpointWriteThrough();
  return true;
}

void ServiceNode::start() {
  if (started_) return;
  started_ = true;
  for (int n = 0; n < parts_.size(); ++n) {
    kernel::KernelBase& k = cluster_.kernelOn(n);
    if (k.booted()) {
      parts_.markReady(n);
      continue;
    }
    parts_.markBooting(n);
    bootNode(n);
  }
  schedulePump();
}

void ServiceNode::bootNode(int n) {
  cluster_.kernelOn(n).boot(guarded([this, n] {
    parts_.markReady(n);
    note("node_ready", 0, engine().now(), {n});
    schedulePump();
    checkpointWriteThrough();
  }));
}

void ServiceNode::schedulePump() {
  schedulePumpAt(engine().now() + cfg_.pollIntervalCycles);
}

void ServiceNode::schedulePumpAt(sim::Cycle due) {
  if (pumpScheduled_) return;
  pumpScheduled_ = true;
  pumpDue_ = due;
  engine().scheduleAt(due, guarded([this] { pump(); }));
}

void ServiceNode::pump() {
  pumpScheduled_ = false;
  pumpDue_ = 0;
  scanHeartbeats();           // hangs logged here are collected below
  ras_.poll(engine().now());  // fatal/warn handlers may drain nodes here
  pollCompletions();
  trySchedule();
  if (!idle() || anyNodeInFlight()) schedulePump();
  checkpointAfterPump();
}

void ServiceNode::scanHeartbeats() {
  if (cfg_.hangTimeoutCycles == 0) return;
  const sim::Cycle now = engine().now();
  for (int n = 0; n < parts_.size(); ++n) {
    if (parts_.state(n) != NodeLifecycle::kRunning) {
      watchdog_.forget(n);
      continue;
    }
    const std::uint64_t progress =
        cluster_.machine().node(n).progressCounter();
    if (!watchdog_.observe(n, progress, now, cfg_.hangTimeoutCycles)) {
      continue;
    }
    // A hung core can't report its own death; write the fatal through
    // the node's kernel ring so it travels the same aggregator path a
    // machine-check panic does (this pump's poll acts on it).
    cluster_.kernelOn(n).logRas(kernel::RasEvent::Code::kCoreHang,
                                kernel::RasEvent::Severity::kFatal, 0, 0,
                                static_cast<std::uint64_t>(n));
  }
}

void ServiceNode::pollCompletions() {
  const std::vector<JobId> running = runningIds_;  // fatal path edits it
  for (JobId id : running) {
    JobRecord* jr = find(id);
    if (jr == nullptr || jr->state != JobState::kRunning) continue;
    // Track the highest app-checkpoint sequence the job's nodes have
    // committed (application ckpt_save or a preempt window), so a
    // later requeue relaunches into restore. Poll-only: no hash note,
    // so checkpoint-free streams keep their pinned schedule digests.
    if (jr->desc.kernel == rt::KernelKind::kCnk) {
      for (int n : jr->nodesHeld) {
        if (auto* c = cluster_.cnkOn(n)) {
          jr->ckptSeq = std::max(jr->ckptSeq, c->ckptSeqCommitted());
        }
      }
    }
    bool allExited = true;
    bool anyBad = false;
    std::int64_t status = 0;
    for (const auto& [node, pid] : jr->pids) {
      kernel::Process* p = cluster_.kernelOn(node).processByPid(pid);
      if (p == nullptr || !p->exited) {
        allExited = false;
        break;
      }
      if (p->exitStatus != 0) {
        anyBad = true;
        status = p->exitStatus;
      }
    }
    if (allExited) finishJob(*jr, !anyBad, status);
  }
}

void ServiceNode::trySchedule() {
  if (queue_.empty()) return;
  SchedContext ctx;
  ctx.now = engine().now();
  for (JobId id : queue_) ctx.queue.push_back(job(id));
  ctx.readyNodes = [this](rt::KernelKind k) { return parts_.readyCount(k); };
  for (JobId id : runningIds_) {
    const JobRecord* jr = job(id);
    ctx.running.push_back(RunningJobInfo{
        jr->id, jr->desc.kernel, jr->desc.nodes,
        jr->startCycle + jr->desc.estCycles, jr->startCycle,
        jr->desc.account});
  }
  if (accounting_.enabled()) {
    accounting_.decayTo(ctx.now);
    for (std::size_t i = 0; i < accounting_.numAccounts(); ++i) {
      const auto id = static_cast<AccountId>(i + 1);
      const AccountSpec& s = *accounting_.spec(id);
      const AccountUsage& u = accounting_.usage(id);
      AccountSchedView v;
      v.id = id;
      v.qos = s.qos;
      v.maxNodes = s.maxNodes;
      v.maxRunning = s.maxRunning;
      v.runningJobs = u.runningJobs;
      v.nodesInUse = u.nodesInUse;
      v.fairShareScore = accounting_.fairShareScore(id);
      v.preemptable = s.preemptable;
      ctx.accounts.push_back(v);
    }
    ctx.inFlightNodes = [this](rt::KernelKind k) {
      int c = 0;
      for (int n = 0; n < parts_.size(); ++n) {
        if (cluster_.kernelKindOn(n) != k) continue;
        const NodeLifecycle s = parts_.state(n);
        if (s == NodeLifecycle::kBooting || s == NodeLifecycle::kDraining ||
            s == NodeLifecycle::kDown || s == NodeLifecycle::kReset) {
          ++c;
        }
      }
      return c;
    };
    // Preemption pass first: victims start draining now, and their
    // nodes go to the starved job on a later pump (inFlightNodes keeps
    // the policy from double-preempting while the drain runs).
    const std::vector<JobId> victims = policy_->selectPreemptions(ctx);
    if (!victims.empty()) {
      const sim::Cycle now = ctx.now;
      for (JobId v : victims) {
        JobRecord* jr = find(v);
        if (jr != nullptr && jr->state == JobState::kRunning) {
          preemptJob(*jr, now);
        }
      }
      return;  // context is stale; select on the next pump
    }
  }
  std::vector<JobId> launched;
  for (std::size_t qi : policy_->select(ctx)) {
    const JobRecord* jr = job(queue_[qi]);
    // Healthy-preferred: link-sick nodes are a last resort (the avoid
    // set is empty on fault-free streams, so schedules there are
    // bit-identical to the plain allocator).
    const std::vector<int> nodes =
        parts_.allocate(jr->desc.nodes, jr->desc.kernel, linkSick_);
    if (static_cast<int>(nodes.size()) < jr->desc.nodes) continue;
    if (launch(*find(jr->id), nodes)) launched.push_back(jr->id);
  }
  for (JobId id : launched) {
    accounting_.onDequeued(job(id)->desc.account);
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                 queue_.end());
  }
}

bool ServiceNode::launch(JobRecord& jr, const std::vector<int>& nodes) {
  const sim::Cycle now = engine().now();
  jr.pids.clear();
  std::vector<int> loaded;
  bool ok = jr.desc.exe != nullptr;  // unresolvable image = rejection
  for (std::size_t i = 0; i < nodes.size() && ok; ++i) {
    const int n = nodes[i];
    kernel::JobSpec spec;
    spec.exe = jr.desc.exe;
    spec.processes = jr.desc.processes;
    spec.libs = jr.desc.libs;
    spec.sharedMemBytes = jr.desc.sharedMemBytes;
    spec.firstRank = static_cast<int>(i) * jr.desc.processes;
    // Identity + restore gate: a requeued job that committed an
    // application checkpoint boots into restore and resumes mid-stream
    // (each node pulls its own per-rank image; a missing or torn image
    // falls back to a scratch start inside the kernel).
    spec.jobId = jr.id;
    spec.restore = jr.ckptSeq > 0;
    const std::size_t before = cluster_.kernelOn(n).processes().size();
    if (!cluster_.loadJobOnNode(n, spec)) {
      ok = false;
      break;
    }
    const auto& procs = cluster_.kernelOn(n).processes();
    for (std::size_t pi = before; pi < procs.size(); ++pi) {
      // FWK spawns its resident daemons lazily on first load; they are
      // kernel infrastructure, not part of the job.
      if (procs[pi]->kernelResident) continue;
      jr.pids.emplace_back(n, procs[pi]->pid());
    }
    loaded.push_back(n);
  }
  if (!ok) {
    // Partial launch: tear down what loaded and fail the job — a load
    // rejection (image too big, bad spec) is not retryable.
    for (int n : loaded) {
      killUserThreadsOn(n);
      scrubNode(n);
    }
    jr.state = JobState::kFailed;
    jr.endCycle = now;
    lastEnd_ = now;
    note("load_reject", jr.id, now, nodes);
    return false;
  }
  ++jr.attempts;
  jr.startCycle = now;
  if (jr.firstStartCycle == 0) jr.firstStartCycle = now;
  jr.nodesHeld = nodes;
  jr.state = JobState::kRunning;
  for (int n : nodes) parts_.markRunning(n, jr.id, now);
  runningIds_.push_back(jr.id);
  accounting_.onLaunch(jr.desc.account, static_cast<int>(nodes.size()));
  note("launch", jr.id, now, nodes);
  if (jr.ckptSeq > 0) {
    ++ckptResumes_;
    note("resume", jr.id, now, nodes);
  }
  return true;
}

void ServiceNode::chargeStopped(JobRecord& jr, sim::Cycle now) {
  if (!accounting_.enabled() || jr.state != JobState::kRunning) return;
  const std::uint64_t elapsed = now >= jr.startCycle ? now - jr.startCycle : 0;
  accounting_.onStop(jr.desc.account, static_cast<int>(jr.nodesHeld.size()),
                     elapsed * jr.nodesHeld.size(), now);
}

void ServiceNode::finishJob(JobRecord& jr, bool ok, std::int64_t status) {
  const sim::Cycle now = engine().now();
  for (int n : jr.nodesHeld) {
    scrubNode(n);
    parts_.release(n, now);
  }
  chargeStopped(jr, now);
  accounting_.onCompleted(jr.desc.account, ok);
  jr.state = ok ? JobState::kCompleted : JobState::kFailed;
  jr.endCycle = now;
  jr.exitStatus = status;
  lastEnd_ = now;
  note(ok ? "complete" : "fail", jr.id, now, jr.nodesHeld);
  jr.nodesHeld.clear();
  runningIds_.erase(
      std::remove(runningIds_.begin(), runningIds_.end(), jr.id),
      runningIds_.end());
}

void ServiceNode::requeueOrFail(JobRecord& jr, sim::Cycle now) {
  chargeStopped(jr, now);
  jr.nodesHeld.clear();
  jr.pids.clear();
  if (jr.attempts <= jr.desc.maxRetries) {
    jr.state = JobState::kQueued;
    queue_.push_back(jr.id);
    accounting_.onQueued(jr.desc.account);
    ++retries_;
    note("retry", jr.id, now);
  } else {
    jr.state = JobState::kFailed;
    accounting_.onCompleted(jr.desc.account, false);
    jr.endCycle = now;
    jr.exitStatus = -1;
    lastEnd_ = now;
    note("fail", jr.id, now);
  }
}

void ServiceNode::preemptJob(JobRecord& jr, sim::Cycle now) {
  if (pendingCkpts_.count(jr.id) != 0) return;  // window already open
  if (cfg_.ckpt.onPreempt && !jr.nodesHeld.empty()) {
    bool allCnk = true;
    for (int n : jr.nodesHeld) {
      if (cluster_.kernelKindOn(n) != rt::KernelKind::kCnk) {
        allCnk = false;
        break;
      }
    }
    if (allCnk) {
      // Open a checkpoint window: every held node cuts + commits an
      // application image while the job keeps running; the kill is
      // deferred to the last ack (or the deadline, whichever first).
      ++ckptRequests_;
      note("ckpt_req", jr.id, now, jr.nodesHeld);
      const std::uint64_t token = ++ckptTokens_;
      PendingCkpt& pc = pendingCkpts_[jr.id];
      pc.remaining = static_cast<int>(jr.nodesHeld.size());
      pc.failed = false;
      pc.token = token;
      const JobId id = jr.id;
      // A kernel may refuse synchronously, and the resulting last ack
      // tears the window down and edits jr.nodesHeld — iterate a copy.
      const std::vector<int> held = jr.nodesHeld;
      for (int n : held) {
        cluster_.cnkOn(n)->requestCheckpoint(
            [alive = std::weak_ptr<bool>(alive_), this, id, token](bool ok) {
              if (alive.expired()) return;
              onCkptAck(id, token, ok);
            });
      }
      engine().scheduleAt(
          now + cfg_.ckpt.deadlineCycles,
          guarded([this, id, token] { onCkptDeadline(id, token); }));
      return;
    }
  }
  finishPreempt(jr, now);
}

void ServiceNode::onCkptAck(JobId id, std::uint64_t token, bool ok) {
  const auto it = pendingCkpts_.find(id);
  if (it == pendingCkpts_.end() || it->second.token != token) return;
  if (!ok) it->second.failed = true;
  if (--it->second.remaining > 0) return;
  const bool committed = !it->second.failed;
  pendingCkpts_.erase(it);
  JobRecord* jr = find(id);
  if (jr == nullptr || jr->state != JobState::kRunning) return;
  const sim::Cycle now = engine().now();
  if (committed) {
    ++ckptCommits_;
    for (int n : jr->nodesHeld) {
      if (auto* c = cluster_.cnkOn(n)) {
        jr->ckptSeq = std::max(jr->ckptSeq, c->ckptSeqCommitted());
      }
    }
    note("ckpt_commit", id, now, jr->nodesHeld);
  } else {
    // Some node refused or its commit failed; the requeue falls back
    // to whatever the job had committed before (possibly nothing).
    ++ckptFallbacks_;
    note("ckpt_fallback", id, now, jr->nodesHeld);
  }
  finishPreempt(*jr, now);
  schedulePump();
  checkpointWriteThrough();
}

void ServiceNode::onCkptDeadline(JobId id, std::uint64_t token) {
  const auto it = pendingCkpts_.find(id);
  if (it == pendingCkpts_.end() || it->second.token != token) return;
  pendingCkpts_.erase(it);  // late acks for this window become stale
  ++ckptFallbacks_;
  JobRecord* jr = find(id);
  if (jr == nullptr || jr->state != JobState::kRunning) return;
  const sim::Cycle now = engine().now();
  note("ckpt_timeout", id, now, jr->nodesHeld);
  finishPreempt(*jr, now);
  schedulePump();
  checkpointWriteThrough();
}

void ServiceNode::finishPreempt(JobRecord& jr, sim::Cycle now) {
  ++preemptions_;
  ++jr.preemptCount;
  note("preempt", jr.id, now, jr.nodesHeld);
  runningIds_.erase(
      std::remove(runningIds_.begin(), runningIds_.end(), jr.id),
      runningIds_.end());
  drainHeldNodes(jr, now, -1);
  chargeStopped(jr, now);
  accounting_.onPreempted(jr.desc.account);
  jr.nodesHeld.clear();
  jr.pids.clear();
  // Back of the queue, exactly once, and no retry budget consumed:
  // preemption is the scheduler's fault, not the job's.
  jr.state = JobState::kQueued;
  queue_.push_back(jr.id);
  accounting_.onQueued(jr.desc.account);
}

// --- torus hard-fault plane: checkpoint-then-migrate --------------------

void ServiceNode::reportMigrateRas(kernel::RasEvent::Code code, JobId id) {
  kernel::RasEvent e;
  e.cycle = engine().now();
  e.code = code;
  e.severity = kernel::defaultRasSeverity(code);
  e.detail = id;
  ras_.reportLocal(e);
}

void ServiceNode::onLinkSick(int node, sim::Cycle cycle, bool dead) {
  (void)cycle;
  const sim::Cycle now = engine().now();
  if (linkSick_.insert(node).second) {
    note(dead ? "link_sick" : "link_storm_sick", parts_.jobOn(node), now,
         {node});
  }
  if (parts_.state(node) != NodeLifecycle::kRunning) {
    return;  // idle node: healthy-preferred allocation steers around it
  }
  const JobId victim = parts_.jobOn(node);
  if (victim == 0) return;
  JobRecord* jr = find(victim);
  if (jr == nullptr || jr->state != JobState::kRunning) return;
  if (pendingMigrates_.count(victim) != 0 ||
      pendingCkpts_.count(victim) != 0) {
    return;  // a window is already open for this job
  }
  bool can = cfg_.migrate.enabled && !jr->nodesHeld.empty();
  if (can) {
    for (int n : jr->nodesHeld) {
      if (cluster_.kernelKindOn(n) != rt::KernelKind::kCnk) {
        can = false;  // only CNK nodes can cut application images
        break;
      }
    }
  }
  if (can) {
    // Healthy capacity after the drain: link-healthy ready nodes now,
    // plus the victim's own link-healthy nodes (they return to the
    // pool when the post-migrate drain completes).
    int healthy = 0;
    for (int n = 0; n < parts_.size(); ++n) {
      if (parts_.kernelOf(n) != jr->desc.kernel) continue;
      if (linkSick_.count(n) != 0) continue;
      const NodeLifecycle st = parts_.state(n);
      if (st == NodeLifecycle::kReady ||
          (st == NodeLifecycle::kRunning && parts_.jobOn(n) == victim)) {
        ++healthy;
      }
    }
    if (healthy < jr->desc.nodes) can = false;
  }
  if (!can) {
    // Migration off, a non-CNK job, or no link-healthy capacity left:
    // the job keeps running where it is. The fabric's deterministic
    // route-around carries its traffic at a latency penalty; the
    // metrics block reports the degradation.
    ++degradedJobs_;
    note("degraded_mode", victim, now, {node});
    reportMigrateRas(kernel::RasEvent::Code::kCkptMigrateFallback, victim);
    return;
  }
  beginMigrate(*jr, now);
}

void ServiceNode::beginMigrate(JobRecord& jr, sim::Cycle now) {
  ++migrateRequests_;
  note("migrate_req", jr.id, now, jr.nodesHeld);
  reportMigrateRas(kernel::RasEvent::Code::kCkptMigrateBegin, jr.id);
  const std::uint64_t token = ++ckptTokens_;
  PendingCkpt& pm = pendingMigrates_[jr.id];
  pm.remaining = static_cast<int>(jr.nodesHeld.size());
  pm.failed = false;
  pm.token = token;
  const JobId id = jr.id;
  // Same synchronous-refusal hazard as preemptJob: iterate a copy.
  const std::vector<int> held = jr.nodesHeld;
  for (int n : held) {
    cluster_.cnkOn(n)->requestCheckpoint(
        [alive = std::weak_ptr<bool>(alive_), this, id, token](bool ok) {
          if (alive.expired()) return;
          onMigrateAck(id, token, ok);
        });
  }
  engine().scheduleAt(
      now + cfg_.migrate.deadlineCycles,
      guarded([this, id, token] { onMigrateDeadline(id, token); }));
}

void ServiceNode::onMigrateAck(JobId id, std::uint64_t token, bool ok) {
  const auto it = pendingMigrates_.find(id);
  if (it == pendingMigrates_.end() || it->second.token != token) return;
  if (!ok) it->second.failed = true;
  if (--it->second.remaining > 0) return;
  const bool committed = !it->second.failed;
  pendingMigrates_.erase(it);
  JobRecord* jr = find(id);
  if (jr == nullptr || jr->state != JobState::kRunning) return;
  const sim::Cycle now = engine().now();
  if (committed) {
    ++migrateCommits_;
    for (int n : jr->nodesHeld) {
      if (auto* c = cluster_.cnkOn(n)) {
        jr->ckptSeq = std::max(jr->ckptSeq, c->ckptSeqCommitted());
      }
    }
    note("migrate_commit", id, now, jr->nodesHeld);
    finishMigrate(*jr, now);
  } else {
    // A node refused or its commit failed: migrating now would lose
    // work, so unlike a preemption window there is no kill — the job
    // keeps running in degraded route-around mode.
    ++migrateFallbacks_;
    ++degradedJobs_;
    note("migrate_fallback", id, now, jr->nodesHeld);
    reportMigrateRas(kernel::RasEvent::Code::kCkptMigrateFallback, id);
  }
  schedulePump();
  checkpointWriteThrough();
}

void ServiceNode::onMigrateDeadline(JobId id, std::uint64_t token) {
  const auto it = pendingMigrates_.find(id);
  if (it == pendingMigrates_.end() || it->second.token != token) return;
  pendingMigrates_.erase(it);  // late acks for this window become stale
  ++migrateFallbacks_;
  JobRecord* jr = find(id);
  if (jr == nullptr || jr->state != JobState::kRunning) return;
  const sim::Cycle now = engine().now();
  ++degradedJobs_;
  note("migrate_timeout", id, now, jr->nodesHeld);
  reportMigrateRas(kernel::RasEvent::Code::kCkptMigrateFallback, id);
  schedulePump();
  checkpointWriteThrough();
}

void ServiceNode::finishMigrate(JobRecord& jr, sim::Cycle now) {
  ++migrations_;
  // Versus a scratch requeue the committed image preserves the whole
  // attempt's progress: the relaunch restores it instead of
  // recomputing it.
  if (now >= jr.startCycle) migrateCyclesSaved_ += now - jr.startCycle;
  note("migrate", jr.id, now, jr.nodesHeld);
  reportMigrateRas(kernel::RasEvent::Code::kCkptMigrateDone, jr.id);
  runningIds_.erase(
      std::remove(runningIds_.begin(), runningIds_.end(), jr.id),
      runningIds_.end());
  drainHeldNodes(jr, now, -1);
  chargeStopped(jr, now);
  jr.nodesHeld.clear();
  jr.pids.clear();
  // Back of the queue with no retry budget consumed: the fault is the
  // fabric's, not the job's. The relaunch allocates healthy-preferred
  // nodes and boots into restore (ckptSeq > 0) under the remapped
  // rank -> node assignment.
  jr.state = JobState::kQueued;
  queue_.push_back(jr.id);
  accounting_.onQueued(jr.desc.account);
}

void ServiceNode::drainHeldNodes(JobRecord& jr, sim::Cycle now,
                                 int skipNode) {
  // Drain the job's partition: kill, wait out the grace period, scrub,
  // return to service.
  for (int h : jr.nodesHeld) {
    if (h == skipNode) continue;
    if (parts_.state(h) != NodeLifecycle::kRunning) continue;
    killUserThreadsOn(h);
    parts_.beginDrain(h, now);
    scheduleDrainDone(h, now + cfg_.drainCycles);
  }
}

void ServiceNode::scheduleDrainDone(int node, sim::Cycle due) {
  nodeOps_[static_cast<std::size_t>(node)] =
      PendingNodeOp{PendingNodeOp::Kind::kDrainDone, due};
  engine().scheduleAt(due, guarded([this, node] { drainDone(node); }));
}

void ServiceNode::scheduleRepairDone(int node, sim::Cycle due) {
  nodeOps_[static_cast<std::size_t>(node)] =
      PendingNodeOp{PendingNodeOp::Kind::kRepairDone, due};
  engine().scheduleAt(due, guarded([this, node] { repairDone(node); }));
}

void ServiceNode::drainDone(int node) {
  PendingNodeOp& op = nodeOps_[static_cast<std::size_t>(node)];
  if (op.kind == PendingNodeOp::Kind::kDrainDone) op = PendingNodeOp{};
  if (parts_.state(node) != NodeLifecycle::kDraining) return;
  scrubNode(node);
  parts_.release(node, engine().now());
  note("node_drained", 0, engine().now(), {node});
  schedulePump();
  checkpointWriteThrough();
}

void ServiceNode::repairDone(int node) {
  PendingNodeOp& op = nodeOps_[static_cast<std::size_t>(node)];
  if (op.kind == PendingNodeOp::Kind::kRepairDone) op = PendingNodeOp{};
  if (parts_.state(node) != NodeLifecycle::kDown) return;
  scrubNode(node);
  cluster_.machine().resetNode(node);
  parts_.markReset(node);
  parts_.markBooting(node);
  note("node_reboot", 0, engine().now(), {node});
  bootNode(node);
  checkpointWriteThrough();
}

void ServiceNode::onNodeFatal(int node, const kernel::RasEvent& e) {
  const NodeLifecycle st = parts_.state(node);
  if (st == NodeLifecycle::kDown || st == NodeLifecycle::kDraining ||
      st == NodeLifecycle::kReset || st == NodeLifecycle::kBooting ||
      st == NodeLifecycle::kRetired) {
    return;  // already being handled (or permanently out of service)
  }
  const sim::Cycle now = engine().now();
  const JobId victim = parts_.jobOn(node);
  ++failures_;
  note("node_fatal", victim, now, {node});

  killUserThreadsOn(node);
  parts_.markDown(node, now);
  if (cfg_.nodeFailureBudget != 0 &&
      parts_.failuresOf(node) >= cfg_.nodeFailureBudget) {
    // Budget blown: this node has proven itself unreliable. Park it
    // for good instead of burning another repair window on it.
    parts_.markRetired(node);
    ++nodesRetired_;
    note("node_retired", 0, now, {node});
  } else {
    scheduleRepairDone(node, now + cfg_.repairCycles);
  }

  if (victim == 0) return;
  JobRecord* jr = find(victim);
  runningIds_.erase(
      std::remove(runningIds_.begin(), runningIds_.end(), victim),
      runningIds_.end());
  drainHeldNodes(*jr, now, node);
  requeueOrFail(*jr, now);
  // Mean-time-to-requeue: from the fatal event's logged cycle to the
  // victim's disposition (requeued or failed out) here.
  if (e.cycle <= now) {
    requeueLatencyTotal_ += now - e.cycle;
    ++requeueCount_;
  }
}

void ServiceNode::onWarnStorm(int node, sim::Cycle cycle) {
  (void)cycle;
  const NodeLifecycle st = parts_.state(node);
  if (st != NodeLifecycle::kRunning && st != NodeLifecycle::kReady) {
    return;  // mid-boot / already draining / already down
  }
  const sim::Cycle now = engine().now();
  const JobId victim = parts_.jobOn(node);
  ++predictiveDrains_;
  note("node_predrain", victim, now, {node});
  ras_.clearWarns(node);
  if (victim != 0) {
    // Retire the sick node before its warns go fatal: the job comes
    // off through the same bounded-retry path a node loss takes, but
    // the node itself only needs a drain + scrub, not a repair.
    JobRecord* jr = find(victim);
    runningIds_.erase(
        std::remove(runningIds_.begin(), runningIds_.end(), victim),
        runningIds_.end());
    drainHeldNodes(*jr, now, -1);
    requeueOrFail(*jr, now);
  } else {
    parts_.beginDrain(node, now);
    scheduleDrainDone(node, now + cfg_.drainCycles);
  }
}

void ServiceNode::onIoNodeDead(int node, const kernel::RasEvent& e) {
  (void)e;
  const int ioIdx = cluster_.machine().ioNodeIndexFor(node);
  // Every kernel in the pset raises its own kIoNodeDead; only the
  // first report of a given death acts. A live (already-replaced)
  // daemon means the storm is stale.
  if (ioRepairPending_[static_cast<std::size_t>(ioIdx)] != 0) return;
  if (!cluster_.ciod(ioIdx).crashed()) return;
  const sim::Cycle now = engine().now();

  const int newNetId = cluster_.failoverIoNode(ioIdx);
  if (newNetId >= 0) {
    // A cold spare took over: the pset's kernels re-homed, rebuilt
    // their ioproxies from shadow state, and their in-flight syscalls
    // complete on the spare. Jobs never notice.
    ++ioFailovers_;
    note("io_failover", 0, now, {node});
    schedulePump();
    checkpointWriteThrough();
    return;
  }

  // No spare left: jobs touching this pset cannot make I/O progress.
  // Requeue them through the bounded-retry path, park the pset's
  // compute nodes, and repair the CIOD in place. The repair event is
  // scheduled *first* so that at the shared deadline the daemon is
  // back before any node finishes rebooting.
  ++ioReboots_;
  ioRepairPending_[static_cast<std::size_t>(ioIdx)] = 1;
  note("io_dead", 0, now, {node});
  const sim::Cycle due = now + cfg_.repairCycles;
  engine().scheduleAt(due, guarded([this, ioIdx] { repairIoNode(ioIdx); }));

  std::vector<JobId> victims;
  for (int n = 0; n < parts_.size(); ++n) {
    if (cluster_.machine().ioNodeIndexFor(n) != ioIdx) continue;
    const NodeLifecycle st = parts_.state(n);
    if (st == NodeLifecycle::kRunning) {
      const JobId id = parts_.jobOn(n);
      if (id != 0 &&
          std::find(victims.begin(), victims.end(), id) == victims.end()) {
        victims.push_back(id);
      }
      killUserThreadsOn(n);
      parts_.markDown(n, now);
      scheduleRepairDone(n, due);
    } else if (st == NodeLifecycle::kReady) {
      parts_.markDown(n, now);
      scheduleRepairDone(n, due);
    }
  }
  for (JobId id : victims) {
    JobRecord* jr = find(id);
    if (jr == nullptr || jr->state != JobState::kRunning) continue;
    runningIds_.erase(
        std::remove(runningIds_.begin(), runningIds_.end(), id),
        runningIds_.end());
    // Nodes the job held outside the dead pset only need a drain.
    drainHeldNodes(*jr, now, -1);
    requeueOrFail(*jr, now);
  }
  schedulePump();
  checkpointWriteThrough();
}

void ServiceNode::repairIoNode(int ioIdx) {
  ioRepairPending_[static_cast<std::size_t>(ioIdx)] = 0;
  if (cluster_.ciod(ioIdx).crashed()) cluster_.rebootIoNode(ioIdx);
  note("io_reboot", 0, engine().now(), {ioIdx});
  schedulePump();
  checkpointWriteThrough();
}

void ServiceNode::killUserThreadsOn(int node) {
  kernel::KernelBase& k = cluster_.kernelOn(node);
  for (auto& p : k.processes()) {
    if (p->kernelResident || p->exited) continue;
    for (auto& t : p->threads()) {
      if (!t->ctx.done()) k.killThread(*t);
    }
    p->exited = true;  // a process with no threads yet still dies
    p->exitStatus = -1;
  }
}

void ServiceNode::scrubNode(int node) {
  if (cluster_.kernelKindOn(node) == rt::KernelKind::kCnk) {
    if (auto* c = cluster_.cnkOn(node)) c->unloadJob();
  }
  // FWK keeps exited processes in its table, as a real Linux would
  // keep zombies until a reaper runs; jobDone() tolerates them.
}

void ServiceNode::note(const char* what, JobId id, sim::Cycle cycle,
                       const std::vector<int>& nodes) {
  hash_.mixString(what);
  hash_.mix(id);
  hash_.mix(cycle);
  for (int n : nodes) hash_.mix(static_cast<std::uint64_t>(n));
  char head[96];
  std::snprintf(head, sizeof(head), "[%12llu] %-12s job=%-4u nodes=",
                static_cast<unsigned long long>(cycle), what, id);
  std::string line = head;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    line += (i != 0 ? "," : "") + std::to_string(nodes[i]);
  }
  timeline_.push_back(std::move(line));
}

JobRecord* ServiceNode::find(JobId id) {
  if (id == 0 || id > jobs_.size()) return nullptr;
  dirty_.resize(jobs_.size(), 0);
  if (dirty_[id - 1] == 0) {
    dirty_[id - 1] = 1;
    dirtyIds_.push_back(id);
  }
  return &jobs_[static_cast<std::size_t>(id - 1)];
}

const JobRecord* ServiceNode::job(JobId id) const {
  return id == 0 || id > jobs_.size() ? nullptr
                                      : &jobs_[static_cast<std::size_t>(id - 1)];
}

bool ServiceNode::idle() const {
  return queue_.empty() && runningIds_.empty();
}

bool ServiceNode::anyNodeInFlight() const {
  for (int n = 0; n < parts_.size(); ++n) {
    const NodeLifecycle s = parts_.state(n);
    if (s == NodeLifecycle::kBooting || s == NodeLifecycle::kDraining ||
        s == NodeLifecycle::kDown || s == NodeLifecycle::kReset) {
      return true;
    }
  }
  return false;
}

bool ServiceNode::runUntilDrained(std::uint64_t maxEvents) {
  start();
  return engine().runWhile(
      [this] { return idle() && !anyNodeInFlight(); }, maxEvents);
}

// --- checkpoint/restart -------------------------------------------------

SvcCheckpoint ServiceNode::checkpointHead() {
  SvcCheckpoint ck;
  ck.takenAt = engine().now();
  ck.scheduleHash = hash_.digest();
  ck.nextId = nextId_;
  ck.retries = retries_;
  ck.failures = failures_;
  ck.predictiveDrains = predictiveDrains_;
  ck.ioFailovers = ioFailovers_;
  ck.ioReboots = ioReboots_;
  ck.nodesRetired = nodesRetired_;
  ck.requeueLatencyTotal = requeueLatencyTotal_;
  ck.requeueCount = requeueCount_;
  ck.preemptions = preemptions_;
  ck.ckptRequests = ckptRequests_;
  ck.ckptCommits = ckptCommits_;
  ck.ckptFallbacks = ckptFallbacks_;
  ck.ckptResumes = ckptResumes_;
  ck.migrateRequests = migrateRequests_;
  ck.migrateCommits = migrateCommits_;
  ck.migrateFallbacks = migrateFallbacks_;
  ck.migrations = migrations_;
  ck.degradedJobs = degradedJobs_;
  ck.migrateCyclesSaved = migrateCyclesSaved_;
  ck.sickNodes.assign(linkSick_.begin(), linkSick_.end());
  ck.firstSubmit = firstSubmit_;
  ck.lastEnd = lastEnd_;
  ck.pumpDue = pumpScheduled_ ? pumpDue_ : 0;
  ck.running = runningIds_;
  for (int n = 0; n < parts_.size(); ++n) {
    ck.nodes.push_back(parts_.snapshot(n));
    ck.ops.push_back(nodeOps_[static_cast<std::size_t>(n)]);
  }
  return ck;
}

std::vector<std::byte> ServiceNode::encodeImage() {
  const SvcCheckpoint head = checkpointHead();
  return svc::encodeImage(
      {head, jobs_, queue_, timeline_, ras_, accounting_});
}

bool ServiceNode::saveCheckpoint() {
  if (store_ == nullptr) return false;
  const SvcCheckpoint head = checkpointHead();
  const ImageSource src{head, jobs_, queue_, timeline_, ras_, accounting_};
  const sim::Cycle now = engine().now();
  sim::ByteWriter record;
  if (journaled_) {
    std::sort(dirtyIds_.begin(), dirtyIds_.end());
    encodeJournalRecord(record, src, journalBase_, dirtyIds_);
  }
  const bool ok = journaled_ && !store_->wantsSnapshot(record.size())
                      ? store_->append(record.bytes(), now)
                      : store_->save(svc::encodeImage(src), now);
  for (JobId id : dirtyIds_) dirty_[id - 1] = 0;
  dirtyIds_.clear();
  journaled_ = ok;
  if (ok) journalBase_.advance(src);
  return ok;
}

bool ServiceNode::checkpointNow() { return saveCheckpoint(); }

void ServiceNode::checkpointAfterPump() {
  if (store_ == nullptr || cfg_.checkpointEveryPumps == 0) return;
  if (++pumpsSinceCkpt_ >= cfg_.checkpointEveryPumps) {
    saveCheckpoint();
    pumpsSinceCkpt_ = 0;
  }
}

void ServiceNode::checkpointWriteThrough() {
  if (store_ != nullptr && cfg_.checkpointEveryPumps == 1) saveCheckpoint();
}

std::unique_ptr<ServiceNode> ServiceNode::restartFrom(rt::Cluster& cluster,
                                                      ServiceNodeConfig cfg,
                                                      CheckpointStore& store) {
  const auto image = store.load();
  if (!image) return nullptr;
  sim::ByteReader r(imageBody(*image));
  auto sn = std::make_unique<ServiceNode>(cluster, cfg, &store);
  if (!sn->loadFrom(r, store)) return nullptr;
  return sn;
}

bool ServiceNode::loadFrom(sim::ByteReader& r, CheckpointStore& store) {
  SvcCheckpoint ck;
  if (!ck.decode(r)) return false;
  if (static_cast<int>(ck.nodes.size()) != parts_.size()) return false;
  if (!ras_.loadFrom(r)) return false;
  if (!accounting_.loadFrom(r)) return false;
  for (int n = 0; n < parts_.size(); ++n) {
    if (!parts_.restore(n, ck.nodes[static_cast<std::size_t>(n)])) {
      return false;
    }
  }
  for (SvcCheckpoint::JobEntry& e : ck.jobs) {
    JobRecord jr = std::move(e.rec);
    jr.desc.exe = e.exeName.empty() ? nullptr : store.image(e.exeName);
    jr.desc.libs.clear();
    for (const std::string& ln : e.libNames) {
      if (auto lib = store.image(ln)) jr.desc.libs.push_back(std::move(lib));
    }
    jobs_.push_back(std::move(jr));
  }
  queue_ = ck.queue;
  runningIds_ = ck.running;
  nodeOps_ = ck.ops;
  nextId_ = ck.nextId;
  retries_ = ck.retries;
  failures_ = ck.failures;
  predictiveDrains_ = ck.predictiveDrains;
  ioFailovers_ = ck.ioFailovers;
  ioReboots_ = ck.ioReboots;
  nodesRetired_ = ck.nodesRetired;
  requeueLatencyTotal_ = ck.requeueLatencyTotal;
  requeueCount_ = ck.requeueCount;
  preemptions_ = ck.preemptions;
  ckptRequests_ = ck.ckptRequests;
  ckptCommits_ = ck.ckptCommits;
  ckptFallbacks_ = ck.ckptFallbacks;
  ckptResumes_ = ck.ckptResumes;
  migrateRequests_ = ck.migrateRequests;
  migrateCommits_ = ck.migrateCommits;
  migrateFallbacks_ = ck.migrateFallbacks;
  migrations_ = ck.migrations;
  degradedJobs_ = ck.degradedJobs;
  migrateCyclesSaved_ = ck.migrateCyclesSaved;
  linkSick_ = std::set<int>(ck.sickNodes.begin(), ck.sickNodes.end());
  firstSubmit_ = ck.firstSubmit;
  lastEnd_ = ck.lastEnd;
  hash_.restore(ck.scheduleHash);
  timeline_ = std::move(ck.timeline);
  started_ = true;

  const sim::Cycle now = engine().now();
  {
    // Timeline-only marker (not hash-mixed: a transparent restart must
    // leave the schedule digest identical to an uninterrupted run).
    char head[96];
    std::snprintf(head, sizeof(head),
                  "[%12llu] %-12s job=0    nodes=",
                  static_cast<unsigned long long>(now), "svc_restart");
    timeline_.push_back(head);
  }

  // Reconcile believed-idle nodes against kernel reality: work the
  // checkpoint never saw (launched after a stale checkpoint) is purged
  // so those nodes really are allocatable.
  for (int n = 0; n < parts_.size(); ++n) {
    if (parts_.state(n) != NodeLifecycle::kReady) continue;
    bool zombies = false;
    for (const auto& p : cluster_.kernelOn(n).processes()) {
      if (!p->kernelResident && !p->exited) zombies = true;
    }
    if (zombies) {
      killUserThreadsOn(n);
      scrubNode(n);
    }
  }

  // Verify every recorded-running job's (node, pid) leases. A lease
  // that no longer checks out (stale checkpoint, node rebooted while
  // the control plane was down) sends the job back through the
  // bounded-retry path.
  const std::vector<JobId> running = runningIds_;
  for (JobId id : running) {
    JobRecord* jr = find(id);
    bool ok = jr != nullptr && jr->state == JobState::kRunning &&
              !jr->pids.empty();
    if (ok) {
      for (const auto& [node, pid] : jr->pids) {
        if (parts_.state(node) != NodeLifecycle::kRunning ||
            parts_.jobOn(node) != id ||
            cluster_.kernelOn(node).processByPid(pid) == nullptr) {
          ok = false;
          break;
        }
      }
    }
    if (ok) continue;
    runningIds_.erase(
        std::remove(runningIds_.begin(), runningIds_.end(), id),
        runningIds_.end());
    if (jr == nullptr) continue;
    drainHeldNodes(*jr, now, -1);
    requeueOrFail(*jr, now);
  }

  // Re-arm persisted drain/repair deadlines (clamped to now — a long
  // outage fires them immediately on restart).
  for (int n = 0; n < parts_.size(); ++n) {
    const PendingNodeOp op = nodeOps_[static_cast<std::size_t>(n)];
    const sim::Cycle due = std::max(op.due, now);
    switch (op.kind) {
      case PendingNodeOp::Kind::kDrainDone:
        if (parts_.state(n) == NodeLifecycle::kDraining) {
          scheduleDrainDone(n, due);
        } else {
          nodeOps_[static_cast<std::size_t>(n)] = PendingNodeOp{};
        }
        break;
      case PendingNodeOp::Kind::kRepairDone:
        if (parts_.state(n) == NodeLifecycle::kDown) {
          scheduleRepairDone(n, due);
        } else {
          nodeOps_[static_cast<std::size_t>(n)] = PendingNodeOp{};
        }
        break;
      case PendingNodeOp::Kind::kNone:
        break;
    }
  }

  // Boots that were in flight lost their completion callbacks with the
  // crashed instance; watch them to readiness instead.
  for (int n = 0; n < parts_.size(); ++n) {
    if (parts_.state(n) == NodeLifecycle::kBooting) watchOrphanBoot(n);
  }

  // I/O daemons that died while the control plane was down — or whose
  // scheduled in-place repair died with the crashed instance — are
  // re-handled now: spare failover when one is left, otherwise an
  // immediate reboot (the outage itself was the repair window; jobs
  // that wedged on the dead daemon were requeued by the lease check).
  for (int i = 0; i < cluster_.machine().numIoNodes(); ++i) {
    if (!cluster_.ciod(i).crashed()) continue;
    const int netId = cluster_.failoverIoNode(i);
    if (netId >= 0) {
      ++ioFailovers_;
      note("io_failover", 0, now, {});
    } else {
      cluster_.rebootIoNode(i);
      ++ioReboots_;
      note("io_reboot", 0, now, {i});
    }
  }

  // Resume the control loop on the checkpointed pump grid: an outage
  // longer than one poll interval skips forward whole intervals, so
  // post-restart pumps land on exactly the cycles the dead instance's
  // would have. That keeps a restart schedule-invisible whenever no
  // decision fell inside the outage window.
  if (ck.pumpDue != 0) {
    sim::Cycle due = ck.pumpDue;
    if (due < now) {
      const sim::Cycle behind = now - due;
      const sim::Cycle k =
          (behind + cfg_.pollIntervalCycles - 1) / cfg_.pollIntervalCycles;
      due += k * cfg_.pollIntervalCycles;
    }
    schedulePumpAt(due);
  } else {
    schedulePump();
  }
  return true;
}

void ServiceNode::watchOrphanBoot(int node) {
  engine().schedule(cfg_.pollIntervalCycles, guarded([this, node] {
    if (parts_.state(node) != NodeLifecycle::kBooting) return;
    if (!cluster_.kernelOn(node).booted()) {
      watchOrphanBoot(node);
      return;
    }
    parts_.markReady(node);
    note("node_ready", 0, engine().now(), {node});
    schedulePump();
    checkpointWriteThrough();
  }));
}

// --- metrics ------------------------------------------------------------

SvcMetrics ServiceNode::metrics() {
  const sim::Cycle now = engine().now();
  parts_.settle(now);
  SvcMetrics m;
  m.jobsSubmitted = jobs_.size();
  for (const JobRecord& jr : jobs_) {
    if (jr.state == JobState::kCompleted) ++m.jobsCompleted;
    if (jr.state == JobState::kFailed) ++m.jobsFailed;
    if (jr.state == JobState::kCancelled) ++m.jobsCancelled;
  }
  m.jobRetries = retries_;
  const sim::Cycle end = lastEnd_ != 0 ? lastEnd_ : now;
  m.elapsedCycles = end > firstSubmit_ ? end - firstSubmit_ : 0;
  m.elapsedSeconds = sim::cyclesToSec(m.elapsedCycles);
  m.jobsPerSecond = m.elapsedSeconds > 0
                        ? static_cast<double>(m.jobsCompleted) /
                              m.elapsedSeconds
                        : 0;
  std::uint64_t waits = 0;
  std::uint64_t started = 0;
  for (const JobRecord& jr : jobs_) {
    if (jr.firstStartCycle == 0) continue;
    const std::uint64_t w = jr.firstStartCycle - jr.submitCycle;
    waits += w;
    m.maxQueueWaitCycles = std::max(m.maxQueueWaitCycles, w);
    ++started;
  }
  m.meanQueueWaitCycles =
      started > 0 ? static_cast<double>(waits) / static_cast<double>(started)
                  : 0;
  m.nodes = parts_.size();
  if (m.elapsedCycles > 0 && m.nodes > 0) {
    m.utilization = static_cast<double>(parts_.totalBusyCycles()) /
                    (static_cast<double>(m.elapsedCycles) *
                     static_cast<double>(m.nodes));
  }
  m.nodeFailures = failures_;
  m.predictiveDrains = predictiveDrains_;
  m.ioFailovers = ioFailovers_;
  m.ioReboots = ioReboots_;
  using Sev = kernel::RasEvent::Severity;
  m.rasInfo = ras_.countBySeverity(Sev::kInfo);
  m.rasWarn = ras_.countBySeverity(Sev::kWarn);
  m.rasError = ras_.countBySeverity(Sev::kError);
  m.rasFatal = ras_.countBySeverity(Sev::kFatal);
  m.rasThrottled = ras_.throttled();
  m.rasDropped = ras_.dropped();
  for (int n = 0; n < parts_.size(); ++n) {
    m.rasRingDropped += cluster_.kernelOn(n).rasDropped();
  }
  for (std::size_t c = 0; c < kernel::kNumRasCodes; ++c) {
    const auto code = static_cast<kernel::RasEvent::Code>(c);
    m.rasByCode.emplace_back(kernel::rasCodeName(code),
                             ras_.countByCode(code));
  }
  m.hangsDetected = watchdog_.hangsDetected();
  m.nodesRetired = nodesRetired_;
  m.preemptions = preemptions_;
  m.ckptRequests = ckptRequests_;
  m.ckptCommits = ckptCommits_;
  m.ckptFallbacks = ckptFallbacks_;
  m.ckptResumes = ckptResumes_;
  m.migrateRequests = migrateRequests_;
  m.migrateCommits = migrateCommits_;
  m.migrateFallbacks = migrateFallbacks_;
  m.migrations = migrations_;
  m.degradedJobs = degradedJobs_;
  m.migrateCyclesSaved = migrateCyclesSaved_;
  m.linkSickNodes = linkSick_.size();
  {
    // Route-around accounting straight from the fabric: detours and
    // retry charges are hardware counters, not control-plane state.
    hw::TorusNet& t = cluster_.machine().torus();
    m.linkDetours = t.detours();
    m.linkDetourHops = t.detourHops();
    m.linkUnroutable = t.unroutable();
    m.linkCrcRetries = cluster_.machine().torusFaults().stats().crcRetries;
  }
  if (accounting_.enabled()) {
    accounting_.decayTo(now);
    for (std::size_t i = 0; i < accounting_.numAccounts(); ++i) {
      const auto id = static_cast<AccountId>(i + 1);
      const AccountSpec& s = *accounting_.spec(id);
      const AccountUsage& u = accounting_.usage(id);
      AccountMetrics am;
      am.name = s.name;
      am.qos = qosName(s.qos);
      am.shares = s.shares;
      am.queuedJobs = u.queuedJobs;
      am.runningJobs = u.runningJobs;
      am.nodesInUse = u.nodesInUse;
      am.decayedUsage = u.decayedUsage;
      am.lifetimeUsage = u.lifetimeUsage;
      am.jobsCompleted = u.jobsCompleted;
      am.jobsFailed = u.jobsFailed;
      am.preemptions = u.preemptions;
      am.quotaRejects = u.quotaRejects;
      am.fairShareScore = accounting_.fairShareScore(id);
      m.accounts.push_back(std::move(am));
    }
  }
  m.requeueSamples = requeueCount_;
  m.meanRequeueCycles =
      requeueCount_ > 0 ? static_cast<double>(requeueLatencyTotal_) /
                              static_cast<double>(requeueCount_)
                        : 0;
  m.scheduleHash = hash_.digest();
  return m;
}

void ServiceNode::injectNodeFailure(int node, sim::Cycle atCycle) {
  engine().scheduleAt(atCycle, guarded([this, node] {
    ras_.injectNodeFailure(node, 0xDEADBEEF);
    schedulePump();
  }));
}

}  // namespace bg::svc
