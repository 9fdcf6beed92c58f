// The machine-speed probe: a miniature discrete-event loop that owes
// nothing to the simulator, timed between repetitions. Each step pops
// the earliest of 2,048 pending events from a binary heap, updates a
// random entry of a 2 MB state table with a data-dependent branch, and
// schedules a follow-up event. That is the simulator's own inner loop in
// outline, and the table lives where the simulator's working set does,
// past the private caches, so the probe slows when other tenants crowd
// the shared cache the way the workloads do. Of the loops tried (this
// one, a switch-dispatched interpreter, a heap alone, dependent loads
// through 8 and 16 MB rings, pure arithmetic), it alone tracked every
// workload's host-time swings. Neither its code nor its inputs change
// with the simulator, so its time moves only with the host's speed.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "suite.hpp"

namespace bg::suite {

namespace {

constexpr std::size_t kTableSlots = 1u << 18;  // 2 MB of uint64
constexpr int kPending = 2048;
constexpr int kSteps = 4'500'000;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

volatile std::uint64_t gSink;

}  // namespace

double probeSeconds() {
  std::vector<std::uint64_t> table(kTableSlots, 0);
  std::vector<std::uint64_t> heap;
  heap.reserve(kPending);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < kPending; ++i) {
    heap.push_back(xorshift(x) & 0xffffffff);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  std::uint64_t acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const std::uint64_t now = heap.back();
    xorshift(x);
    std::uint64_t& slot = table[(x ^ now) & (kTableSlots - 1)];
    if ((slot ^ x) & 3) {
      slot += now;
    } else {
      slot ^= x;
    }
    acc += slot;
    heap.back() = now + (x & 0xffff);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
  gSink = acc;
  return sec;
}

}  // namespace bg::suite
