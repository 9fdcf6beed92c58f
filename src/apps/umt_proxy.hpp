// UMT proxy (paper §V-B): a Python-driven application's kernel-visible
// behaviour — dlopen of multiple dynamic libraries at startup, then
// OpenMP-style threaded compute, then an output file written through
// the I/O path.
//
// Samples emitted by the main thread, in order:
//   0: cycles spent in the dlopen phase (eager on CNK, lazy on FWK)
//   1: cycles spent in the threaded compute phase (where the FWK pays
//      its lazy library page faults from networked storage)
//   2: bytes written to the output file (syscall result)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "kernel/elf.hpp"

namespace bg::apps {

/// Bytes the main thread writes to /tmp/umt.out through fship.
inline constexpr std::uint32_t kUmtOutputBytes = 8192;

struct UmtParams {
  int libs = 2;             // dynamic libraries to dlopen
  int threads = 4;
  std::uint64_t computeCycles = 120'000;  // per thread
};

std::shared_ptr<kernel::ElfImage> umtImage(const UmtParams& p = {});

/// The library images the job must carry (pass as JobSpec::libs).
std::vector<std::shared_ptr<kernel::ElfImage>> umtLibraries(
    const UmtParams& p = {});

}  // namespace bg::apps
