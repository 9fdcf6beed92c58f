// Seeded compute-node memory/CPU fault injection (paper §III, §V-B).
//
// The paper's reliability story rests on the compute node's hardware
// fault plane: ECC DDR that corrects single-bit flips and machine-
// checks on multi-bit ones, and parity-protected L1 lines the kernel
// can recover by invalidate+refill. MemFaultModel injects those as
// seeded probabilistic events (a core that stops making forward
// progress comes from fault schedules, through Core::hang()),
// mirroring LinkFaultModel's zero-RNG-when-clean contract: when the
// rates are all zero the judge helpers return immediately without
// touching the generator, so a fault-free run is bit-identical to a
// build without the model.
//
// Each node draws from its own named stream (`Rng(seed ^ nodeId,
// "mem-faults")`) created up front by the Machine, and judging happens
// at deterministic points in the simulation (DDR accesses, L1 line
// fills), so the same seed yields the same fault pattern on every
// run. Streams are strictly per node, so one node's fault pattern
// never depends on another node's traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace bg::hw {

/// Per-access fault probabilities, shared by every compute node.
struct MemFaultRates {
  double ceRate = 0.0;          ///< correctable ECC per DDR access
  double ueRate = 0.0;          ///< uncorrectable ECC per DDR access
  double parityRate = 0.0;      ///< L1 parity flip per line fill

  bool eccEnabled() const { return ceRate > 0.0 || ueRate > 0.0; }
  bool parityEnabled() const { return parityRate > 0.0; }
  bool enabled() const { return eccEnabled() || parityEnabled(); }
};

struct MemFaultStats {
  std::uint64_t correctable = 0;    ///< CE events injected
  std::uint64_t uncorrectable = 0;  ///< UE events injected
  std::uint64_t parityFlips = 0;    ///< L1 parity events injected
};

/// What a single DDR access judgement decided.
enum class EccOutcome : std::uint8_t { kNone, kCorrectable, kUncorrectable };

class MemFaultModel {
 public:
  MemFaultModel(std::uint64_t seed, std::string_view component)
      : seed_(seed), component_(component) {}

  /// Create the per-node RNG streams (seed ^ nodeId). Must be called
  /// once, before any judging — the Machine does this at construction.
  void attachNodes(int count) {
    rngs_.reserve(static_cast<std::size_t>(count));
    for (int n = static_cast<int>(rngs_.size()); n < count; ++n) {
      rngs_.emplace_back(seed_ ^ static_cast<std::uint64_t>(n),
                         component_);
    }
  }

  /// Rates applied to every node.
  void setRates(const MemFaultRates& r) { rates_ = r; }
  const MemFaultRates& rates() const { return rates_; }
  bool anyEnabled() const { return rates_.enabled(); }

  /// Judge one DDR access on `node`. Draws nothing when the node's
  /// ECC rates are zero.
  EccOutcome judgeDdr(int node);

  /// Judge one L1 line fill on `node`. Draws nothing at rate zero.
  bool judgeParity(int node);

  /// Totals across nodes.
  const MemFaultStats& stats() const { return stats_; }

  /// Determinism witness: raw RNG steps consumed, summed over every
  /// node's stream. Must stay zero for a model whose rates are all
  /// zero, however much traffic it judged.
  std::uint64_t rngDraws() const {
    std::uint64_t total = 0;
    for (const sim::Rng& r : rngs_) total += r.draws();
    return total;
  }
  /// Per-node draw-count witness (one stream per node).
  std::uint64_t rngDraws(int node) const {
    return rngs_[static_cast<std::size_t>(node)].draws();
  }

 private:
  sim::Rng& rngFor(int node) { return rngs_[static_cast<std::size_t>(node)]; }

  std::uint64_t seed_;
  std::string component_;
  std::vector<sim::Rng> rngs_;          // one stream per node
  MemFaultRates rates_;
  MemFaultStats stats_;
};

}  // namespace bg::hw
