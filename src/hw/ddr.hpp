// DDR timing model: access latency, periodic refresh, self-refresh.
//
// Refresh matters for two reasons. First, it is the only deterministic
// source of residual jitter on CNK (everything else is cycle-exact), so
// the FWQ-on-CNK plot shows the paper's tiny <0.006% spread instead of
// an implausible flat line. Second, self-refresh is the mechanism CNK
// uses to preserve DRAM contents across a full chip reset in
// reproducible mode (paper §III).
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace bg::hw {

class MemFaultModel;
enum class EccOutcome : std::uint8_t;

inline constexpr sim::Cycle kDdrAccessLatency = 60;  // L3 miss to DDR
inline constexpr sim::Cycle kDdrRefreshInterval = 6630;  // ~7.8us at 850MHz
inline constexpr sim::Cycle kDdrRefreshDuration = 28;

class Ddr {
 public:
  /// Latency of an access issued at `now`, including any stall caused
  /// by an in-progress refresh window. Purely a function of `now`, so
  /// reproducible runs see identical stalls.
  sim::Cycle accessLatency(sim::Cycle now) const {
    const sim::Cycle phase = now % kDdrRefreshInterval;
    const sim::Cycle stall =
        phase < kDdrRefreshDuration ? kDdrRefreshDuration - phase : 0;
    return kDdrAccessLatency + stall;
  }

  void enterSelfRefresh() { selfRefresh_ = true; }
  void exitSelfRefresh() { selfRefresh_ = false; }
  bool inSelfRefresh() const { return selfRefresh_; }

  /// ECC fault injection (paper §III: ECC DDR). The Node attaches the
  /// machine-wide MemFaultModel and keeps `armed_` in sync with the
  /// node's effective ECC rates, so the hot DDR path pays one branch
  /// on a member bool when injection is off.
  void attachFaults(MemFaultModel* m, int nodeId) {
    faults_ = m;
    nodeId_ = nodeId;
  }
  void armFaults(bool armed) { armed_ = armed && faults_ != nullptr; }
  bool faultsArmed() const { return armed_; }

  /// Judge one access against the fault model (defined in ddr.cpp).
  /// Only call when faultsArmed(); draws nothing at zero rates.
  EccOutcome judgeEcc();

 private:
  bool selfRefresh_ = false;
  bool armed_ = false;
  MemFaultModel* faults_ = nullptr;
  int nodeId_ = 0;
};

}  // namespace bg::hw
