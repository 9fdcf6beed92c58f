#include "frontdoor/swarm.hpp"

#include <utility>

namespace bg::fd {
namespace {

constexpr sim::Cycle kBurstPeriodCycles = 2'000'000;
constexpr sim::Cycle kBurstWidthCycles = 200'000;
constexpr double kBackgroundFraction = 0.2;
constexpr sim::Cycle kStartOffsetCycles = 50'000;
constexpr double kFwkFraction = 0.25;
constexpr std::uint32_t kJobNodes = 1;
constexpr std::uint32_t kJobMaxRetries = 1;
constexpr sim::Cycle kFollowUpDelayCycles = 150'000;

}  // namespace

Swarm::Swarm(sim::Engine& engine, hw::CollectiveNet& net, SwarmParams params)
    : engine_(engine), net_(net), p_(std::move(params)) {}

sim::Cycle Swarm::horizonCycles() const {
  return static_cast<sim::Cycle>(p_.bursts) * kBurstPeriodCycles;
}

void Swarm::start() {
  // One stream for the whole swarm, drawn client-major / submit-minor
  // in a fixed call order. The fault knobs (forcedDupRate, cancelRate,
  // ...) only change how a draw is interpreted, never whether it is
  // made, so the arrival schedule is identical across fault configs
  // with the same (seed, clients, submitsPerClient).
  sim::Rng rng(p_.seed, "fd.swarm");
  const sim::Cycle horizon = horizonCycles();

  clients_.reserve(p_.clients);
  for (std::uint32_t c = 0; c < p_.clients; ++c) {
    auto client = std::make_unique<FdClient>(
        engine_, net_, p_.serverNetId, p_.serverNetId + 1 + static_cast<int>(c),
        c, p_.clientMaxBusyRetries);
    client->attach();

    for (std::uint32_t s = 0; s < p_.submitsPerClient; ++s) {
      // Unconditional draws, fixed order.
      const std::uint64_t burst = rng.nextBelow(p_.bursts);
      const double bg = rng.nextDouble();
      const std::uint64_t inBurst = rng.nextBelow(kBurstWidthCycles);
      const std::uint64_t anywhere = rng.nextBelow(horizon);
      const double kdraw = rng.nextDouble();
      const double fdraw = rng.nextDouble();
      const double ddraw = rng.nextDouble();

      const sim::Cycle arrival =
          kStartOffsetCycles +
          (bg < kBackgroundFraction
               ? anywhere
               : burst * kBurstPeriodCycles + inBurst);

      SubmitOp op;
      op.jobName = 'c' + std::to_string(c) + 's' + std::to_string(s);
      op.kernel = kdraw < kFwkFraction ? 1 : 0;
      op.nodes = kJobNodes;
      op.processes = 1;
      op.estCycles = p_.estCycles;
      op.maxRetries = kJobMaxRetries;
      op.exeName = p_.exeName;
      op.forceDup = ddraw < p_.forcedDupRate;
      if (fdraw < p_.cancelRate) {
        op.followUp = FollowUp::kCancel;
      } else if (fdraw < p_.cancelRate + p_.queryRate) {
        op.followUp = FollowUp::kQuery;
      }
      op.followUpDelay = kFollowUpDelayCycles;

      client->scheduleSubmitAt(arrival, std::move(op));
    }
    clients_.push_back(std::move(client));
  }
}

bool Swarm::quiescent() const {
  for (const auto& c : clients_) {
    if (!c->quiescent()) return false;
  }
  return true;
}

Swarm::Totals Swarm::totals() const {
  Totals t;
  for (const auto& c : clients_) {
    const FdClient::Counters& k = c->counters();
    t.submitsSent += k.submitsSent;
    t.retransmits += k.retransmits;
    t.busyRetries += k.busyRetries;
    t.busyAbandoned += k.busyAbandoned;
    t.abandoned += k.abandoned;
    t.acked += k.acked;
    t.quotaRejected += k.quotaRejected;
    t.rejectedOther += k.rejectedOther;
    t.dupResponses += k.dupResponses;
    t.badResponses += k.badResponses;
    t.cancelsAcked += k.cancelsAcked;
    t.cancelsTooLate += k.cancelsTooLate;
    t.queriesDone += k.queriesDone;
    t.latencies.insert(t.latencies.end(), c->ackLatencies().begin(),
                       c->ackLatencies().end());
    t.tickets.insert(t.tickets.end(), c->tickets().begin(),
                     c->tickets().end());
  }
  return t;
}

}  // namespace bg::fd
