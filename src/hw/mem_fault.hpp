// Seeded compute-node memory/CPU fault injection (paper §III, §V-B).
//
// The paper's reliability story rests on the compute node's hardware
// fault plane: ECC DDR that corrects single-bit flips and machine-
// checks on multi-bit ones, parity-protected L1 lines the kernel can
// recover by invalidate+refill, and the occasional core that simply
// stops making forward progress. MemFaultModel injects all of those
// as seeded probabilistic events, mirroring LinkFaultModel's
// zero-RNG-when-clean contract: when a node's rates are all zero the
// judge helpers return immediately without touching the generator, so
// a fault-free run is bit-identical to a build without the model.
//
// Each node draws from its own named stream (`Rng(seed ^ nodeId,
// "mem-faults")`) created up front by the Machine, and judging happens
// at deterministic points in the simulation (DDR accesses, L1 line
// fills, slice starts), so the same seed yields the same fault pattern
// on every run. Streams and their counters are strictly per node, so
// one node's fault pattern never depends on another node's traffic.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/rng.hpp"

namespace bg::hw {

/// Per-access / per-slice fault probabilities for one compute node.
struct MemFaultRates {
  double ceRate = 0.0;          ///< correctable ECC per DDR access
  double ueRate = 0.0;          ///< uncorrectable ECC per DDR access
  double parityRate = 0.0;      ///< L1 parity flip per line fill
  double hangRate = 0.0;        ///< core hang per executed slice
  double spuriousMcRate = 0.0;  ///< spurious machine check per slice

  bool eccEnabled() const { return ceRate > 0.0 || ueRate > 0.0; }
  bool parityEnabled() const { return parityRate > 0.0; }
  bool sliceEnabled() const {
    return hangRate > 0.0 || spuriousMcRate > 0.0;
  }
  bool enabled() const {
    return eccEnabled() || parityEnabled() || sliceEnabled();
  }
};

struct MemFaultStats {
  std::uint64_t correctable = 0;    ///< CE events injected
  std::uint64_t uncorrectable = 0;  ///< UE events injected
  std::uint64_t parityFlips = 0;    ///< L1 parity events injected
  std::uint64_t coreHangs = 0;      ///< cores hung
  std::uint64_t spuriousMcs = 0;    ///< spurious machine checks
};

/// What a single DDR access judgement decided.
enum class EccOutcome : std::uint8_t { kNone, kCorrectable, kUncorrectable };

/// What a single slice judgement decided.
struct SliceFaultOutcome {
  bool hang = false;
  bool spuriousMc = false;
};

class MemFaultModel {
 public:
  MemFaultModel(std::uint64_t seed, std::string_view component)
      : seed_(seed), component_(component) {}

  /// Create the per-node RNG streams (seed ^ nodeId) and per-node
  /// stats slots. Must be called once, before any judging — the
  /// Machine does this at construction.
  void attachNodes(int count) {
    rngs_.reserve(static_cast<std::size_t>(count));
    for (int n = static_cast<int>(rngs_.size()); n < count; ++n) {
      rngs_.emplace_back(seed_ ^ static_cast<std::uint64_t>(n),
                         component_);
    }
    stats_.resize(static_cast<std::size_t>(count));
  }
  int attachedNodes() const { return static_cast<int>(rngs_.size()); }

  /// Rates applied to nodes without a per-node override.
  void setDefaultRates(const MemFaultRates& r) { defaults_ = r; }
  /// Per-node override (e.g. one flaky DIMM in the rack).
  void setNodeRates(int node, const MemFaultRates& r) {
    perNode_[node] = r;
  }

  const MemFaultRates& ratesFor(int node) const {
    auto it = perNode_.find(node);
    return it == perNode_.end() ? defaults_ : it->second;
  }

  bool anyEnabled() const {
    if (defaults_.enabled()) return true;
    for (const auto& [n, r] : perNode_) {
      if (r.enabled()) return true;
    }
    return false;
  }

  /// Judge one DDR access on `node`. Draws nothing when the node's
  /// ECC rates are zero.
  EccOutcome judgeDdr(int node);

  /// Judge one L1 line fill on `node`. Draws nothing at rate zero.
  bool judgeParity(int node);

  /// Judge one executed core slice on `node`. Draws nothing when the
  /// node's slice rates are zero.
  SliceFaultOutcome judgeSlice(int node);

  /// Aggregated across nodes (cheap: the fleet is small).
  MemFaultStats stats() const {
    MemFaultStats total;
    for (const MemFaultStats& s : stats_) {
      total.correctable += s.correctable;
      total.uncorrectable += s.uncorrectable;
      total.parityFlips += s.parityFlips;
      total.coreHangs += s.coreHangs;
      total.spuriousMcs += s.spuriousMcs;
    }
    return total;
  }
  const MemFaultStats& statsFor(int node) const {
    return stats_[static_cast<std::size_t>(node)];
  }

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
  MemFaultStats& statsAt(int node) {
    return stats_[static_cast<std::size_t>(node)];
  }

  std::uint64_t seed_;
  std::string component_;
  std::vector<sim::Rng> rngs_;          // one stream per node
  MemFaultRates defaults_;
  std::unordered_map<int, MemFaultRates> perNode_;
  std::vector<MemFaultStats> stats_;    // one slot per node
};

}  // namespace bg::hw
