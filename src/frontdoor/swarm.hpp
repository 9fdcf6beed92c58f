// A deterministic client swarm: thousands of concurrent FdClients
// with seeded bursty arrivals, mixed job shapes, and optional injected
// retries/duplicates/cancels — the load generator behind
// bench_frontdoor and the exactly-once witnesses.
//
// Every random decision for the whole run is drawn up front at
// start(), client-major, with a FIXED number of draws per operation
// regardless of which options are enabled. That makes the arrival
// process a pure function of (seed, clients, submitsPerClient): two
// configs that differ only in fault knobs (forcedDupRate, link fault
// rates) schedule byte-identical arrival streams, which is the
// foundation of the duplicate-vs-clean schedule comparison.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "frontdoor/client.hpp"
#include "sim/rng.hpp"

namespace bg::fd {

struct SwarmParams {
  std::uint32_t clients = 1000;
  std::uint32_t submitsPerClient = 2;
  std::uint64_t seed = 42;
  int serverNetId = 0;

  // Arrival process: `bursts` windows of 200K cycles, one every 2M
  // cycles, plus a 20% background spread uniformly over the whole
  // horizon.
  std::uint32_t bursts = 4;

  // Job mix: a quarter FWK, one node each.
  std::uint64_t estCycles = 400'000;
  std::string exeName = "fdwork";

  // Injected client behavior.
  double cancelRate = 0.0;  // follow-up CANCEL after the ack
  double queryRate = 0.0;   // follow-up QUERY after the ack
  double forcedDupRate = 0.0;  // send the submit frame twice
  int clientMaxBusyRetries = 8;  // fresh-seq resubmits after kServerBusy
};

class Swarm {
 public:
  struct Totals {
    std::uint64_t submitsSent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t busyRetries = 0;
    std::uint64_t busyAbandoned = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t acked = 0;
    std::uint64_t quotaRejected = 0;
    std::uint64_t rejectedOther = 0;
    std::uint64_t dupResponses = 0;
    std::uint64_t badResponses = 0;
    std::uint64_t cancelsAcked = 0;
    std::uint64_t cancelsTooLate = 0;
    std::uint64_t queriesDone = 0;
    /// Ack latencies concatenated in client order (deterministic).
    std::vector<sim::Cycle> latencies;
    /// Every ticket any client was granted.
    std::vector<std::uint64_t> tickets;
  };

  Swarm(sim::Engine& engine, hw::CollectiveNet& net, SwarmParams params);

  /// Create + attach all clients, draw the full operation schedule,
  /// and plant the arrival events. Call once, before running.
  void start();

  /// True when every client's operation chain has terminated.
  bool quiescent() const;

  Totals totals() const;
  std::size_t size() const { return clients_.size(); }
  sim::Cycle horizonCycles() const;

 private:
  sim::Engine& engine_;
  hw::CollectiveNet& net_;
  SwarmParams p_;
  std::vector<std::unique_ptr<FdClient>> clients_;
};

}  // namespace bg::fd
