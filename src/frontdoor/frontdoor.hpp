// The service node's front door: the RPC endpoint user submissions
// enter through.
//
// The paper's control system (§III) keeps CNK thin by pushing job
// management to the service node; this class is the service node's
// client-facing half. It demultiplexes versioned fd::Request frames
// off a simulated collective link, enforces admission control (a full
// queue answers SERVER_BUSY with a retry-after hint instead of
// accepting unbounded work), coalesces accepted submits into batches
// so a thousand-client burst costs one control-plane checkpoint per
// batch rather than per request, and answers every accepted submit
// with a ticket that cancel/query can reference later.
//
// Exactly-once: clients tag every request with a per-client sequence
// number; a bounded per-client replay cache recognizes duplicates. A
// duplicate with the retransmit flag set (a client watchdog resend)
// gets its cached response replayed; one with the flag clear (a link-
// level duplicate) is dropped silently — a second response send would
// charge the server uplink and perturb every other client's timing,
// which is exactly what the duplicate-vs-clean schedule witness in
// tests/test_frontdoor.cpp pins down.
//
// The in-flight request table (ticket -> pending submission) can be
// persisted into its own region of the service host's checkpoint
// store; when the control plane fail-stops and restarts, the restart
// hook rebuilds the table, re-verifies every ticket against the
// recovered job table, and resubmits whatever the crash swallowed —
// no acknowledged submission is ever lost.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "frontdoor/protocol.hpp"
#include "hw/collective.hpp"
#include "sim/engine.hpp"
#include "sim/hash.hpp"
#include "svc/failover.hpp"
#include "svc/job.hpp"

namespace bg::fd {

struct FrontDoorConfig {
  /// The server's endpoint id on the front-door collective net.
  int netId = 0;
  /// A batch reaching this size flushes immediately.
  std::size_t maxBatch = 64;
  /// Admission bound: submits bounce with kServerBusy once the batch
  /// plus the scheduler queue reach this depth.
  std::size_t maxQueueDepth = 256;
  /// Backpressure hint sent with kServerBusy.
  sim::Cycle retryAfterCycles = 300'000;
  /// Persist the in-flight table into the host's checkpoint store so
  /// it survives control-plane crashes.
  bool persist = false;
  /// Multi-tenant identity: map a wire clientId to an accounting
  /// AccountId. Unset (or returning 0) = anonymous single-tenant
  /// traffic; no quota checks, no account tagging — and therefore no
  /// change to the admission digest.
  std::function<svc::AccountId(std::uint32_t)> accountOf;
};

struct FrontDoorStats {
  std::uint64_t requests = 0;  // decoded frames (any type)
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;       // kServerBusy bounces
  std::uint64_t quotaRejected = 0;  // kQuotaExceeded bounces (maxQueued)
  std::uint64_t badVersion = 0;
  std::uint64_t badRequests = 0;
  std::uint64_t corrupt = 0;  // frames that failed decode
  std::uint64_t dupSilent = 0;  // wire duplicates, dropped silently
  std::uint64_t replays = 0;    // cached responses resent to retransmits
  std::uint64_t staleDrops = 0;  // seqs below an evicted cache window
  std::uint64_t droppedWhileDown = 0;  // arrived during a svc outage
  std::uint64_t cancelsBatched = 0;  // cancelled before the flush
  std::uint64_t cancelsQueued = 0;   // cancelled out of the svc queue
  std::uint64_t cancelsTooLate = 0;
  std::uint64_t unknownTickets = 0;
  std::uint64_t queries = 0;
  std::uint64_t statsRequests = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flushedJobs = 0;
  std::uint64_t restarts = 0;     // restart-hook invocations
  std::uint64_t resubmitted = 0;  // tickets re-batched after a crash
  std::uint64_t maxPendingSeen = 0;
  std::uint64_t maxBatchSeen = 0;
};

class FrontDoor {
 public:
  FrontDoor(sim::Engine& engine, svc::ServiceHost& host,
            hw::CollectiveNet& net, FrontDoorConfig cfg = {});
  ~FrontDoor();

  /// Register the packet handler and the host restart hook. Call once.
  void attach();

  const FrontDoorStats& stats() const { return stats_; }
  /// FNV digest over every admission decision (accept / reject /
  /// quota-reject / cancel / flush / restart-resubmit) — the front
  /// door's half of the
  /// determinism witness. Duplicates, queries, and stats requests are
  /// deliberately NOT mixed: a duplicates-only fault run must digest
  /// identically to a clean run.
  std::uint64_t digest() const { return digest_.digest(); }
  std::size_t pendingCount() const { return pending_.size(); }
  std::size_t batchedCount() const { return batch_.size(); }
  const FrontDoorConfig& config() const { return cfg_; }

  /// Every ticket ever issued with the svc job id it mapped to
  /// (0 while still batched). Test surface for the no-acked-loss
  /// invariant across warm restarts.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ticketJobIds() const;

 private:
  enum class SubState : std::uint8_t { kBatched, kSubmitted };

  /// One accepted-but-not-yet-terminal submission. Ordered by ticket
  /// in a std::map: O(log n) insert/lookup/erase with deterministic
  /// iteration, which the restart-reconcile path depends on.
  struct PendingSub {
    std::uint32_t clientId = 0;
    std::uint64_t seq = 0;
    SubState state = SubState::kBatched;
    std::uint32_t jobId = 0;  // valid once kSubmitted
    std::string jobName;
    std::uint32_t kernel = 0;
    std::uint32_t nodes = 1;
    std::uint32_t processes = 1;
    std::uint64_t estCycles = 0;
    std::uint32_t maxRetries = 0;
    std::string exeName;
    svc::AccountId account = 0;  // resolved at accept time
  };

  /// Enough of a response to reconstruct it for a retransmit replay.
  struct CachedResp {
    MsgType type = MsgType::kSubmitResp;
    Status status = Status::kOk;
    std::uint64_t ticket = 0;
    std::uint64_t retryAfterCycles = 0;
  };
  struct ClientCache {
    std::map<std::uint64_t, CachedResp> bySeq;
  };

  svc::ServiceNode& node() { return host_.node(); }

  void onPacket(hw::CollPacket&& p);
  void handleSubmit(const Request& q, int replyTo);
  void handleCancel(const Request& q, int replyTo);
  void handleQuery(const Request& q, int replyTo);
  void handleStats(const Request& q, int replyTo);

  void sendResponse(const Response& p, int dstNode);
  /// Record the response in the client's replay cache (evicting the
  /// oldest entry past the window), then send it.
  void cacheAndSend(const Request& q, Response p, int dstNode);

  void armFlush();
  void flush();

  void mix(const char* what, std::uint64_t a, std::uint64_t b);
  void persistIfOn();
  bool saveImage();
  bool loadImage();
  void onHostRestart();

  sim::Engine& engine_;
  svc::ServiceHost& host_;
  hw::CollectiveNet& net_;
  FrontDoorConfig cfg_;

  std::map<std::uint64_t, PendingSub> pending_;  // by ticket
  std::vector<std::uint64_t> batch_;             // tickets, accept order
  std::map<std::uint32_t, ClientCache> clients_;
  std::uint64_t nextTicket_ = 1;
  sim::EventId flushEvent_ = 0;
  sim::Fnv1a digest_;
  FrontDoorStats stats_;
  bool attached_ = false;
};

}  // namespace bg::fd
