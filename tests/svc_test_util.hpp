// Shared helper for service-node tests: every persisted counter in
// image order, so a test can pin a whole outcome in one comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "svc/service_node.hpp"

namespace bg::test {

inline std::vector<std::uint64_t> svcCounters(const svc::ServiceNode& sn) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < svc::kNumSvcCounters; ++i) {
    out.push_back(sn.count(static_cast<svc::SvcCounter>(i)));
  }
  return out;
}

}  // namespace bg::test
