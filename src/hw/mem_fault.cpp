#include "hw/mem_fault.hpp"

namespace bg::hw {

// Each judge draws at most once per enabled fault class, in a fixed
// order, from the judged node's own stream, so a node's stream
// advances identically for identical traffic on that node, whatever
// the rest of the machine does.
// A zero rate draws nothing at all — the `> 0.0` guards are the
// zero-RNG-when-clean contract, not an optimization.

EccOutcome MemFaultModel::judgeDdr(int node) {
  const MemFaultRates& r = rates_;
  if (!r.eccEnabled()) return EccOutcome::kNone;
  sim::Rng& rng = rngFor(node);
  if (r.ueRate > 0.0 && rng.nextDouble() < r.ueRate) {
    ++stats_.uncorrectable;
    return EccOutcome::kUncorrectable;
  }
  if (r.ceRate > 0.0 && rng.nextDouble() < r.ceRate) {
    ++stats_.correctable;
    return EccOutcome::kCorrectable;
  }
  return EccOutcome::kNone;
}

bool MemFaultModel::judgeParity(int node) {
  const MemFaultRates& r = rates_;
  if (!r.parityEnabled()) return false;
  if (rngFor(node).nextDouble() < r.parityRate) {
    ++stats_.parityFlips;
    return true;
  }
  return false;
}

SliceFaultOutcome MemFaultModel::judgeSlice(int node) {
  SliceFaultOutcome out;
  const MemFaultRates& r = rates_;
  if (!r.sliceEnabled()) return out;
  sim::Rng& rng = rngFor(node);
  if (r.hangRate > 0.0 && rng.nextDouble() < r.hangRate) {
    ++stats_.coreHangs;
    out.hang = true;
    return out;  // a hung core takes no further faults this slice
  }
  if (r.spuriousMcRate > 0.0 && rng.nextDouble() < r.spuriousMcRate) {
    ++stats_.spuriousMcs;
    out.spuriousMc = true;
  }
  return out;
}

}  // namespace bg::hw
