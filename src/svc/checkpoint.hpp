// Serializable image of the service node's control-plane state.
//
// The paper's availability story (§III-IV) rests on the service node
// owning all job state; this file defines what "all job state" is for
// our control plane: the scheduler queue, the running-job table with
// its (node, pid) leases, retry counters, per-node lifecycle with any
// pending drain/repair deadline, the RAS cursors, and the running
// schedule-hash. A restarted service node rebuilt from this image
// resumes the identical schedule — executables are referenced by name
// and resolved through the CheckpointStore's image catalog (the
// simulated shared filesystem), never embedded.
//
// The image is persisted as a sealed snapshot plus a journal of
// per-save records (svc/failover.hpp). A record repeats the small
// sections whole and carries the large ones only as far as they
// changed: entries of changed jobs, queue removals and appends, and
// the timeline lines and RAS events appended since the previous save.
// ImageReplay applies records to a snapshot and yields exactly the
// bytes a full encode of the same state gives, so restore keeps one
// decode path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "sim/bytes.hpp"
#include "sim/types.hpp"
#include "svc/job.hpp"
#include "svc/partition.hpp"

namespace bg::svc {

/// A timer the service node had armed for a node when the checkpoint
/// was taken. Restart re-schedules it at the persisted absolute due
/// cycle (clamped to now), so drain grace periods and repair windows
/// keep their original deadlines across a control-plane crash.
struct PendingNodeOp {
  enum class Kind : std::uint8_t { kNone, kDrainDone, kRepairDone };
  Kind kind = Kind::kNone;
  sim::Cycle due = 0;
};

struct SvcCheckpoint {
  // Layout version. Images live only in simulated persistent memory
  // inside one process, so decode() accepts this version alone; any
  // other header is rejected and the control plane cold-starts. (v4
  // added tenancy, v5 application checkpoints, v6 the torus hard-fault
  // plane's migrate counters and link-sick node set.)
  static constexpr std::uint32_t kVersion = 6;

  struct JobEntry {
    JobRecord rec;  // rec.desc.exe / rec.desc.libs left empty
    std::string exeName;
    std::vector<std::string> libNames;
  };

  sim::Cycle takenAt = 0;
  std::uint64_t scheduleHash = 0;
  JobId nextId = 1;
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;
  std::uint64_t predictiveDrains = 0;
  std::uint64_t ioFailovers = 0;  // CIOD deaths resolved onto a spare
  std::uint64_t ioReboots = 0;    // CIOD deaths repaired in place
  std::uint64_t nodesRetired = 0;  // failure budgets blown
  /// Mean-time-to-requeue accounting: fatal RAS cycle -> victim job
  /// disposition, summed, with the sample count.
  std::uint64_t requeueLatencyTotal = 0;
  std::uint64_t requeueCount = 0;
  /// Jobs killed and requeued for higher-QOS work.
  std::uint64_t preemptions = 0;
  /// Checkpoint-then-preempt accounting.
  std::uint64_t ckptRequests = 0;   // preemptions that asked for a ckpt
  std::uint64_t ckptCommits = 0;    // requests every node committed
  std::uint64_t ckptFallbacks = 0;  // deadline/fault -> scratch requeue
  std::uint64_t ckptResumes = 0;    // launches booted into restore
  /// Checkpoint-then-migrate accounting.
  std::uint64_t migrateRequests = 0;   // link-sick escalations that asked
  std::uint64_t migrateCommits = 0;    // requests every node committed
  std::uint64_t migrateFallbacks = 0;  // window failed -> job stays put
  std::uint64_t migrations = 0;        // jobs requeued onto healthy nodes
  std::uint64_t degradedJobs = 0;      // left running in route-around mode
  std::uint64_t migrateCyclesSaved = 0;  // progress preserved vs scratch
  /// Nodes the link-health predictor declared link-sick.
  std::vector<int> sickNodes;
  sim::Cycle firstSubmit = 0;
  sim::Cycle lastEnd = 0;
  /// Absolute cycle the next control-loop pump was scheduled for;
  /// 0 = none pending (queue drained).
  sim::Cycle pumpDue = 0;

  std::vector<JobEntry> jobs;
  std::deque<JobId> queue;
  std::vector<JobId> running;
  std::vector<PartitionManager::NodeSnapshot> nodes;
  std::vector<PendingNodeOp> ops;  // parallel to nodes
  std::vector<std::string> timeline;

  /// The sections of encode() an image writes from live state: the
  /// header (version through pumpDue), one job entry, and the tables
  /// (running ids, node snapshots with their pending ops).
  void encodeHead(sim::ByteWriter& w) const;
  static void encodeJob(sim::ByteWriter& w, const JobRecord& j,
                        const std::string& exeName,
                        const std::vector<std::string>& libNames);
  void encodeTables(sim::ByteWriter& w) const;

  void encode(sim::ByteWriter& w) const;
  /// Returns false on a version mismatch or truncation.
  bool decode(sim::ByteReader& r);
};

/// The sections of a full checkpoint image, in image order. The image
/// is a table of their byte lengths (u32 each) followed by the
/// sections back to back. Past the table the bytes are
/// SvcCheckpoint::encode, then RasAggregator's state and stream, then
/// Accounting::saveTo: what ServiceNode::loadFrom decodes.
enum class ImageSection : std::uint8_t {
  kHead,        // SvcCheckpoint::encodeHead
  kJobs,        // u64 count, then one entry per job ever submitted
  kQueue,       // u64 count, then the queued ids in order
  kTables,      // SvcCheckpoint::encodeTables
  kTimeline,    // u64 count, then the lines
  kRasState,    // RasAggregator::saveStateTo
  kRasStream,   // RasAggregator::saveStreamTo: u64 count, fixed-size events
  kAccounting,  // Accounting::saveTo
};
inline constexpr std::size_t kImageSections = 8;
inline constexpr std::size_t kImageTableBytes = 4 * kImageSections;

class Accounting;
class RasAggregator;

/// The live control-plane state an image or journal record is encoded
/// from: the service node's own members, by reference.
struct ImageSource {
  const SvcCheckpoint& head;  // header and tables; jobs etc. left empty
  const std::vector<JobRecord>& jobs;
  const std::deque<JobId>& queue;
  const std::vector<std::string>& timeline;
  const RasAggregator& ras;
  const Accounting& accounting;
};

/// What the store's snapshot and journal already hold, so the next
/// journal record carries only the difference.
struct JournalBase {
  std::size_t jobs = 0;        // jobs submitted
  std::vector<JobId> queue;    // queued ids in order
  std::size_t lines = 0;       // timeline lines
  std::uint64_t rasBegin = 0;  // RasAggregator stream positions held
  std::uint64_t rasEnd = 0;
  /// Take `s` as persisted (after a successful save).
  void advance(const ImageSource& s);
};

/// The full image of `s`.
std::vector<std::byte> encodeImage(const ImageSource& s);

/// One journal record taking `base` to `s`. `changed` lists, in
/// ascending order, every job modified since `base` was taken (jobs
/// submitted since are added without being listed). The record lists
/// the sections in image order:
///   kHead, kTables, kRasState, kAccounting: u32 length, then the
///     whole section (writeFramed);
///   kJobs: u32 count, then the entries of changed and new jobs;
///   kQueue: u32 count of removed positions in the previous queue
///     (ascending), the positions, u32 count of appended ids, the ids;
///   kTimeline: u32 count, then the lines appended;
///   kRasStream: u32 events dropped from the front, u32 count, then
///     the events appended.
void encodeJournalRecord(sim::ByteWriter& w, const ImageSource& s,
                         const JournalBase& base,
                         std::span<const JobId> changed);

/// Writes a full image: the caller writes each section to out() in
/// order and calls close() after it, which fills in its length.
class ImageWriter {
 public:
  ImageWriter() { w_.grow(kImageTableBytes); }
  sim::ByteWriter& out() { return w_; }
  void close();
  std::vector<std::byte> take() && { return std::move(w_).take(); }

 private:
  sim::ByteWriter w_;
  std::size_t closed_ = 0;
  std::size_t start_ = kImageTableBytes;
};

/// The bytes after the section table; empty when `image` is shorter
/// than the table.
std::span<const std::byte> imageBody(std::span<const std::byte> image);

/// A whole section inside a journal record: u32 length, then what
/// `body` writes.
template <class Body>
void writeFramed(sim::ByteWriter& w, Body&& body) {
  const std::size_t at = w.size();
  w.u32(0);
  body();
  w.patchU32(at, static_cast<std::uint32_t>(w.size() - at - 4));
}

/// Rebuilds the full image from a snapshot and the journal records
/// written after it.
class ImageReplay {
 public:
  /// Split a snapshot image into its sections. False when the table or
  /// a section does not parse.
  bool reset(std::span<const std::byte> image);
  /// Apply one journal record. False, with nothing changed, when the
  /// record does not parse against the current state.
  bool apply(std::span<const std::byte> record);
  /// The full image of the current state.
  std::vector<std::byte> image() const;

 private:
  std::vector<std::byte> head_;
  std::vector<std::vector<std::byte>> jobs_;  // index = id - 1
  std::vector<std::uint32_t> queue_;
  std::vector<std::byte> tables_;
  std::uint64_t lines_ = 0;
  std::vector<std::byte> timeline_;  // the lines, without their count
  std::vector<std::byte> rasState_;
  std::uint64_t events_ = 0;
  std::vector<std::byte> stream_;  // the events, without their count
  std::vector<std::byte> accounting_;
};

}  // namespace bg::svc
