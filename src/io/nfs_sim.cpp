#include "io/nfs_sim.hpp"

namespace bg::io {
namespace {

constexpr sim::Cycle kBaseLatency = 170'000;  // ~200us round trip at 850MHz
constexpr double kCyclesPerByte = 8.5;        // ~100MB/s server bandwidth
constexpr double kJitterMean = 25'000;        // exponential service jitter

}  // namespace

sim::Cycle NfsSim::opLatency(FsOpKind, std::uint64_t bytes, sim::Cycle) {
  const sim::Cycle jitter = static_cast<sim::Cycle>(rng_.nextExp(kJitterMean));
  return kBaseLatency +
         static_cast<sim::Cycle>(kCyclesPerByte * static_cast<double>(bytes)) +
         jitter;
}

}  // namespace bg::io
