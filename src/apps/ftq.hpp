// FTQ (Fixed Time Quanta), the companion of FWQ in the LLNL benchmark
// pair the paper cites (§V-A ref [8]).
//
// Where FWQ times a fixed amount of work, FTQ counts how many fixed
// work units complete inside each fixed time window: noise shows up as
// windows with FEWER completed units. Each sample is the unit count of
// one window.
#pragma once

#include <cstdint>
#include <memory>

#include "kernel/elf.hpp"

namespace bg::apps {

struct FtqParams {
  int windows = 1000;
  int threads = 4;
};

std::shared_ptr<kernel::ElfImage> ftqImage(const FtqParams& p = {});

}  // namespace bg::apps
