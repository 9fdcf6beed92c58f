// LINPACK proxy (paper §V-D performance-stability experiment).
//
// Blocked-DGEMM-shaped phases: heavy compute + L2/L3-visible memory
// sweeps, with a collective every phase (panel broadcast proxy). One
// sample per run: total wall cycles, which the stability bench runs 36
// times the way the paper ran 36 LINPACKs.
#pragma once

#include <cstdint>
#include <memory>

#include "kernel/elf.hpp"

namespace bg::apps {

/// Compute cycles of one phase.
inline constexpr std::uint64_t kLinpackComputePerPhase = 300'000;

struct LinpackParams {
  int phases = 24;
};

std::shared_ptr<kernel::ElfImage> linpackImage(const LinpackParams& p = {});

}  // namespace bg::apps
