// mpiBench_Allreduce-style benchmark (Phloem suite; paper §V-D).
//
// Each rank loops: MPI_Allreduce of a double-sum, timing every
// iteration. On CNK the per-iteration times are essentially constant
// (the paper measured sigma = 0.0007us over a million iterations); on
// the FWK, daemons and ticks delay individual ranks, and since the
// combine completes only when the LAST contributor arrives, one node's
// noise becomes everyone's latency.
#pragma once

#include <cstdint>
#include <memory>

#include "kernel/elf.hpp"

namespace bg::apps {

struct AllreduceParams {
  int iterations = 1000;
  /// Compute between iterations (models the application work whose
  /// duration noise perturbs).
  std::uint64_t computeCycles = 20'000;
};

std::shared_ptr<kernel::ElfImage> allreduceImage(
    const AllreduceParams& p = {});

}  // namespace bg::apps
