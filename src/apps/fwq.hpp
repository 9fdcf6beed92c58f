// FWQ (Fixed Work Quanta) noise benchmark (paper §V-A, Figs 5-7).
//
// Single-node, no communication: a fixed loop of work (a DAXPY on a
// 256-element vector that fits in L1, repeated 256 times per sample)
// timed 12,000 times on each of the node's four cores. Without noise
// every sample takes the same number of cycles; the per-sample
// timebase deltas land in host-visible sample sinks.
#pragma once

#include <cstdint>
#include <memory>

#include "kernel/elf.hpp"

namespace bg::apps {

struct FwqParams {
  int samples = 12000;
  /// Cycles of one 256-element DAXPY repetition. Calibrated so a clean
  /// sample costs ~658.9K cycles (~0.775ms at 850MHz; the paper's
  /// minimum was 658,958).
  std::uint64_t cyclesPerRep = 2570;
  int threads = 4;  // one per core
};

/// Executable image: main thread spawns (threads-1) workers, runs the
/// FWQ loop itself, joins, exits. Sample sink indices are the thread
/// creation order: 0 = main.
std::shared_ptr<kernel::ElfImage> fwqImage(const FwqParams& p = {});

}  // namespace bg::apps
