// A simulated front-door client: one submitting user (an mpirun, a
// batch script) driving the fd::Request protocol over the collective
// net, with the reliability machinery a real submission tool needs —
// a response-timeout watchdog with exponential backoff, retransmits
// tagged so the server can replay cached outcomes, bounded busy-retry
// with the server's retry-after hint, and follow-up cancel/query ops
// chained after an acknowledged submit.
//
// Determinism: a client draws no random numbers at run time. Every
// operation (arrival cycle, job shape, injected duplicate, follow-up
// choice) is decided up front by the swarm's seeded generator and
// scheduled as an absolute-cycle engine event, so the same seed
// replays the same open-loop arrival process regardless of what fault
// rates the links run — which is what lets a duplicates-only run be
// compared schedule-for-schedule against a clean run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "frontdoor/protocol.hpp"
#include "hw/collective.hpp"
#include "sim/engine.hpp"

namespace bg::fd {

/// Injected wire-duplicate source offset: a forced duplicate is sent
/// from a ghost uplink (netId + this) so the injection itself charges
/// no serialization on the client's real link — mirroring the link
/// fault model's duplicate, which also charges no second
/// serialization. Injections must not perturb real traffic's timing.
inline constexpr int kDupInjectSrcOffset = 1'000'000;

struct FdClientConfig {
  sim::Cycle responseTimeoutCycles = 600'000;
  int maxAttempts = 6;     // transmits per op before abandoning
  int maxBusyRetries = 8;  // fresh-seq resubmits after kServerBusy
};

enum class FollowUp : std::uint8_t { kNone, kQuery, kCancel };

/// One predecided submit operation.
struct SubmitOp {
  std::string jobName;
  std::uint32_t kernel = 0;  // 0 = CNK, 1 = FWK
  std::uint32_t nodes = 1;
  std::uint32_t processes = 1;
  std::uint64_t estCycles = 400'000;
  std::uint32_t maxRetries = 1;
  std::string exeName;
  /// Send the frame twice (injected wire duplicate, flag clear).
  bool forceDup = false;
  FollowUp followUp = FollowUp::kNone;
  sim::Cycle followUpDelay = 0;
};

class FdClient {
 public:
  struct Counters {
    std::uint64_t submitsSent = 0;   // distinct submit ops started
    std::uint64_t retransmits = 0;   // watchdog resends (flag set)
    std::uint64_t busyRetries = 0;   // fresh-seq resubmits after busy
    std::uint64_t busyAbandoned = 0;
    std::uint64_t abandoned = 0;     // ops out of transmit attempts
    std::uint64_t acked = 0;         // submits answered kOk
    std::uint64_t quotaRejected = 0;  // kQuotaExceeded; not retried
    std::uint64_t rejectedOther = 0;  // bad version / bad request
    std::uint64_t dupResponses = 0;  // responses for finished ops
    std::uint64_t badResponses = 0;  // frames that failed decode
    std::uint64_t cancelsAcked = 0;
    std::uint64_t cancelsTooLate = 0;
    std::uint64_t queriesDone = 0;
  };

  FdClient(sim::Engine& engine, hw::CollectiveNet& net, int serverNetId,
           int netId, std::uint32_t clientId, FdClientConfig cfg = {});
  ~FdClient();

  /// Register this client's response handler on the net. Call once.
  void attach();

  /// Schedule a submit at an absolute cycle. The outstanding count is
  /// taken now, so quiescent() is false until the op (and any chained
  /// follow-up or busy-retry) reaches a terminal state.
  void scheduleSubmitAt(sim::Cycle at, SubmitOp op);

  bool quiescent() const { return outstanding_ == 0; }
  const Counters& counters() const { return counters_; }
  /// Submit->ack latency per acknowledged submit, measured from the
  /// op's first transmit (busy retries extend, retransmits don't).
  const std::vector<sim::Cycle>& ackLatencies() const { return latencies_; }
  const std::vector<std::uint64_t>& tickets() const { return tickets_; }
  std::uint32_t clientId() const { return clientId_; }

 private:
  struct Op {
    Request req;
    sim::Cycle firstSend = 0;  // carried across busy resubmits
    int attempts = 0;
    int busyRetries = 0;
    sim::EventId timer = 0;
    bool forceDup = false;
    FollowUp followUp = FollowUp::kNone;
    sim::Cycle followUpDelay = 0;
  };

  void startSubmit(const SubmitOp& s, sim::Cycle firstSend, int busyRetries);
  void startFollowUp(MsgType type, std::uint64_t ticket);
  void transmit(Op& op);
  void armTimer(Op& op);
  void onTimeout(std::uint64_t seq);
  void onPacket(hw::CollPacket&& p);
  /// Retire an op: cancel its watchdog, drop it, release its
  /// outstanding token unless it was transferred to a successor.
  void finish(std::uint64_t seq, bool transferred);

  sim::Engine& engine_;
  hw::CollectiveNet& net_;
  int serverNetId_;
  int netId_;
  std::uint32_t clientId_;
  FdClientConfig cfg_;

  std::map<std::uint64_t, Op> ops_;  // in-flight, by seq
  std::uint64_t nextSeq_ = 1;
  std::uint64_t outstanding_ = 0;
  Counters counters_;
  std::vector<sim::Cycle> latencies_;
  std::vector<std::uint64_t> tickets_;
  bool attached_ = false;
};

}  // namespace bg::fd
