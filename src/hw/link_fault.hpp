// Deterministic link-fault injection for the network models.
//
// The paper's RAS story (§III, §IV) exists because real machines drop,
// corrupt and delay packets; this model makes those events first-class
// *and reproducible*: every fault decision flows from a seeded
// sim::Rng, never from wall-clock state, so a faulty run replays
// cycle-exactly under the same seed. With all rates zero the model
// draws no random numbers at all — a fault-free run is bit-identical
// to a build without the model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace bg::hw {

/// Per-packet fault rates. Probabilities in [0, 1); delays in cycles.
struct LinkFaultRates {
  double dropRate = 0.0;       // packet vanishes (charged to the wire)
  double corruptRate = 0.0;    // one payload byte is flipped
  double delayRate = 0.0;      // extra latency is added
  double duplicateRate = 0.0;  // packet is delivered twice
  sim::Cycle delayMinCycles = 1'000;
  sim::Cycle delayMaxCycles = 50'000;

  bool enabled() const {
    return dropRate > 0.0 || corruptRate > 0.0 || delayRate > 0.0 ||
           duplicateRate > 0.0;
  }
};

struct LinkFaultStats {
  std::uint64_t packetsSeen = 0;  // packets on faulted links only
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  /// CRC retransmit rounds charged on degraded links (hard-fault
  /// plane; see markDegraded below).
  std::uint64_t crcRetries = 0;
};

/// One fault decision for a packet about to traverse a link.
struct LinkFaultOutcome {
  bool drop = false;
  bool corrupt = false;
  bool duplicate = false;
  sim::Cycle extraDelay = 0;            // applied to the (first) delivery
  sim::Cycle duplicateDelay = 0;        // second copy lags the first
  std::size_t corruptByteIndex = 0;     // which payload byte to damage
  std::uint8_t corruptXor = 0;          // how to damage it (never 0)
};

/// Seeded fault model shared by the collective and torus networks.
/// Link identity is an opaque uint64 key chosen by the caller (the
/// collective uses the source node id; the torus its directed-link
/// key); per-link rate overrides take precedence over the defaults.
class LinkFaultModel {
 public:
  LinkFaultModel(std::uint64_t seed, const char* component)
      : rng_(seed, component) {}

  void setDefaultRates(const LinkFaultRates& r) { defaults_ = r; }
  void setLinkRates(std::uint64_t linkKey, const LinkFaultRates& r) {
    perLink_[linkKey] = r;
  }
  const LinkFaultRates& ratesFor(std::uint64_t linkKey) const {
    auto it = perLink_.find(linkKey);
    return it != perLink_.end() ? it->second : defaults_;
  }

  /// True when any link could fault — callers may skip the hook (and
  /// thus all RNG draws) entirely when false.
  bool anyEnabled() const {
    if (defaults_.enabled()) return true;
    for (const auto& [k, r] : perLink_) {
      if (r.enabled()) return true;
    }
    return false;
  }

  /// Decide the fate of one packet of `payloadBytes` bytes on
  /// `linkKey`. Draws from the RNG only for fault classes whose rate
  /// is nonzero, and nothing at all when the link's rates are clean.
  LinkFaultOutcome judge(std::uint64_t linkKey, std::size_t payloadBytes);

  const LinkFaultStats& stats() const { return stats_; }

  // --- hard directed-link faults (fail-stop + degraded) --------------
  //
  // Unlike the probabilistic per-packet rates above, these are state:
  // a dead link carries no traffic at all until the machine is rebuilt
  // (the torus routes around it deterministically), and a degraded
  // link pays a fixed CRC-retry-storm penalty on every traversal. No
  // RNG is involved, so arming them changes only the links they name.

  /// Fail-stop a directed link. Returns false when it was already
  /// dead. Dead links are permanent for the life of the model.
  bool markDead(std::uint64_t linkKey) {
    return dead_.insert(linkKey).second;
  }
  bool isDead(std::uint64_t linkKey) const {
    return dead_.count(linkKey) != 0;
  }
  bool anyDead() const { return !dead_.empty(); }

  /// Degrade a directed link: every traversal is charged `retries`
  /// CRC retransmit rounds (re-serialization + NACK turnaround — a
  /// retry storm, not a loss). retries <= 0 heals the link.
  void markDegraded(std::uint64_t linkKey, int retries) {
    if (retries <= 0) {
      degraded_.erase(linkKey);
    } else {
      degraded_[linkKey] = retries;
    }
  }
  int degradeOf(std::uint64_t linkKey) const {
    auto it = degraded_.find(linkKey);
    return it == degraded_.end() ? 0 : it->second;
  }
  bool anyDegraded() const { return !degraded_.empty(); }

  /// Charge `retries` retransmit rounds (the torus calls this per
  /// traversal of a degraded link).
  void chargeRetries(int retries) {
    stats_.crcRetries += static_cast<std::uint64_t>(retries);
  }

  /// Raw generator steps taken so far. The zero-RNG-when-clean witness:
  /// a run with all rates zero must leave this at exactly 0.
  std::uint64_t rngDraws() const { return rng_.draws(); }

 private:
  sim::Rng rng_;
  LinkFaultRates defaults_;
  std::map<std::uint64_t, LinkFaultRates> perLink_;
  LinkFaultStats stats_;
  std::set<std::uint64_t> dead_;             // fail-stopped directed links
  std::map<std::uint64_t, int> degraded_;    // linkKey -> retries/traversal
};

}  // namespace bg::hw
