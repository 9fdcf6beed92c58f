// Crash-safety for the service node.
//
// CNK's persistent-memory regions survive job boundaries (§IV-D); the
// same mechanism makes the *control system* itself crash-safe: the
// service node checkpoints its job-queue state into a named region
// carved from a cnk::PersistRegistry over the service node's own DRAM
// (hw::PhysMem), which outlives any one control-plane process. A
// ServiceHost owns that DRAM plus the live ServiceNode instance and
// drives the fail-stop model: crash() destroys the control plane
// mid-stream (pending engine events die with it), restart() rebuilds
// it from the last checkpoint and resumes scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cnk/persist.hpp"
#include "hw/phys_mem.hpp"
#include "kernel/elf.hpp"
#include "sim/types.hpp"
#include "svc/service_node.hpp"

namespace bg::svc {

/// Persistent backing for service-node checkpoints: a PersistRegistry
/// pool on dedicated DRAM, one named region holding a sealed snapshot
/// of the full image followed by a journal of sealed per-save records,
/// plus an executable catalog standing in for the shared filesystem
/// (checkpoints reference job images by name; the images themselves
/// survive on "disk").
///
/// Every record carries the generation of its snapshot and a sequence
/// number (the snapshot is 0). A new snapshot starts the next
/// generation at the front of the region, so records an older
/// generation left past the new tail are never replayed. The journal is
/// compacted into a fresh snapshot once it would outgrow the snapshot
/// or the region.
class CheckpointStore {
 public:
  struct Config {
    std::uint64_t poolBytes = 16ULL << 20;
    std::uint64_t regionBytes = 4ULL << 20;
    std::uint32_t uid = 0;  // the service daemon's uid
    std::string regionName = "svc.jobqueue";
  };

  CheckpointStore() : CheckpointStore(Config{}) {}
  explicit CheckpointStore(Config cfg);

  /// Persist a full image as a fresh snapshot, which empties the
  /// journal. Fails (false, region untouched) when the image does not
  /// fit the region or the region cannot be opened.
  bool save(std::span<const std::byte> image, sim::Cycle now);

  /// Append one journal record (svc/checkpoint.hpp) after the live
  /// snapshot. Fails (false) when there is no snapshot, the record does
  /// not fit, or the region cannot be opened.
  bool append(std::span<const std::byte> record, sim::Cycle now);

  /// True when a save of a `recordBytes` journal record should write a
  /// snapshot instead: there is none yet, the journal would outgrow the
  /// snapshot, or the record would not fit the region.
  bool wantsSnapshot(std::uint64_t recordBytes) const;

  /// The full image at the last valid record: the snapshot with every
  /// record of its generation applied, up to the first torn, truncated
  /// or stale one. nullopt when there is no valid snapshot.
  std::optional<std::vector<std::byte>> load() const;
  bool hasCheckpoint() const { return saves_ > 0; }

  // Executable catalog (the shared filesystem's view of job images).
  void registerImage(const std::shared_ptr<kernel::ElfImage>& img);
  std::shared_ptr<kernel::ElfImage> image(const std::string& name) const;

  cnk::PersistRegistry& registry() { return reg_; }
  /// The store's raw DRAM — exposed so tests can corrupt a checkpoint
  /// in place and watch load() reject it.
  hw::PhysMem& mem() { return mem_; }

  /// Snapshots and journal appends both count as saves; the last one's
  /// bytes (its image or record, without the seal) are lastImageBytes.
  std::uint64_t saves() const { return saves_; }
  std::uint64_t lastImageBytes() const { return lastImageBytes_; }
  sim::Cycle lastSaveCycle() const { return lastSaveCycle_; }
  /// Saves that returned false.
  std::uint64_t failedSaves() const { return failedSaves_; }
  /// Generation of the live snapshot (0 = none written yet), the
  /// records in its journal, and the region offset one past the newest
  /// record (where the next one goes).
  std::uint64_t generation() const { return gen_; }
  std::uint64_t journalRecords() const { return seq_; }
  std::uint64_t journalTail() const { return tail_; }

 private:
  /// Seal `body` behind its generation/sequence stamp at region offset
  /// `at` (sequence 0, a snapshot, stamps the next generation); counts
  /// the save or the failure.
  bool writeRecord(std::uint64_t magic, std::uint64_t at, std::uint64_t seq,
                   std::span<const std::byte> body, sim::Cycle now);

  Config cfg_;
  hw::PhysMem mem_;
  cnk::PersistRegistry reg_;
  std::map<std::string, std::shared_ptr<kernel::ElfImage>> images_;
  std::uint64_t saves_ = 0;
  std::uint64_t failedSaves_ = 0;
  std::uint64_t lastImageBytes_ = 0;
  sim::Cycle lastSaveCycle_ = 0;
  std::uint64_t gen_ = 0;
  std::uint64_t seq_ = 0;            // sequence number of the newest record
  std::uint64_t tail_ = 0;           // region offset of the next record
  std::uint64_t snapshotBytes_ = 0;  // region bytes the snapshot takes
  std::uint64_t journalBytes_ = 0;   // region bytes the records take
};

/// Owns the control plane across crashes. Everything that must survive
/// a service-node failure lives here (the CheckpointStore); everything
/// that dies with one lives in the ServiceNode it wraps.
class ServiceHost {
 public:
  ServiceHost(rt::Cluster& cluster, ServiceNodeConfig cfg = {},
              CheckpointStore::Config storeCfg = {});

  /// The live control plane. Only valid while alive().
  ServiceNode& node() { return *sn_; }
  bool alive() const { return sn_ != nullptr; }
  CheckpointStore& store() { return store_; }

  /// Forwards to the live service node; while crashed, the submission
  /// is buffered (the "client" retries) and delivered on restart, in
  /// order. Buffered submissions return 0 (the id is assigned later).
  JobId submit(JobDesc desc);

  /// Batch counterpart of submit(): one pump poke + one checkpoint for
  /// the whole batch (front-door flushes). While crashed the batch is
  /// buffered like single submissions; the returned vector is then
  /// empty (ids are assigned on restart).
  std::vector<JobId> submitBatch(std::vector<JobDesc> descs);

  /// Invoked at the end of every restart(), after the new control
  /// plane is live and buffered submissions have been flushed. The
  /// front door uses this to rebuild its in-flight request table from
  /// its own persisted region.
  void setRestartHook(std::function<void()> hook) {
    restartHook_ = std::move(hook);
  }

  void start();

  /// Fail-stop: destroy the control plane now. Jobs already running on
  /// compute nodes keep running; pending control-loop events die.
  void crash();

  /// Rebuild from the last checkpoint (warm) or cold-start a fresh
  /// service node when no valid checkpoint exists; then flush buffered
  /// submissions. Returns true on a warm (checkpointed) restart.
  bool restart();

  /// Deterministic fail-stop schedule: crash at `atCycle`, restart
  /// `downCycles` later.
  void scheduleCrashRestart(sim::Cycle atCycle, sim::Cycle downCycles);

  /// Drive the engine until the stream drains (queue, running jobs,
  /// node lifecycles, buffered submissions) — crash/restart events
  /// scheduled on the engine fire along the way.
  bool runUntilDrained(std::uint64_t maxEvents = 400'000'000);
  bool drained() const {
    return alive() && pending_.empty() && sn_->drained();
  }

  /// Live metrics plus the host's crash/restart/checkpoint counters.
  SvcMetrics metrics();

  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t restarts() const { return restarts_; }
  std::uint64_t coldStarts() const { return coldStarts_; }

 private:
  rt::Cluster& cluster_;
  ServiceNodeConfig cfg_;
  CheckpointStore store_;
  std::unique_ptr<ServiceNode> sn_;
  std::vector<JobDesc> pending_;  // submissions buffered while down
  std::function<void()> restartHook_;
  bool started_ = false;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t coldStarts_ = 0;
};

}  // namespace bg::svc
