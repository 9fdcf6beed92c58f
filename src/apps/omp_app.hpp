// OpenMP-phase application (paper §V-B functionality + §VIII extended
// thread affinity).
//
// The program alternates an "MPI phase" (rank-parallel compute +
// allreduce) with an "OpenMP phase" in which the process tries to
// spawn `ompThreads` worker pthreads, synchronize them on a
// pthread-barrier, and join. Under CNK in VN mode (4 processes/node) a
// process owns one core, so extra threads only fit if the §VIII
// remote-thread extension designates other cores — exactly the
// alternation the paper says motivated the extension.
#pragma once

#include <cstdint>
#include <memory>

#include "kernel/elf.hpp"

namespace bg::apps {

struct OmpAppParams {
  int ompThreads = 4;  // team size incl. the master
  int phases = 3;
};

/// Samples emitted by the main thread, in order:
///   per phase: number of workers successfully created.
std::shared_ptr<kernel::ElfImage> ompAppImage(const OmpAppParams& p = {});

}  // namespace bg::apps
