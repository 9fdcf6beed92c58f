// Preemptive per-core scheduler for the FWK baseline.
//
// Round-robin runqueues with a timeslice enforced by the decrementer
// tick; daemon threads get priority (they model kernel threads that
// preempt user work on wakeup). Threads may migrate only at explicit
// assignment — like Linux with affinity masks set, matching the FWQ
// measurement methodology.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "kernel/process.hpp"
#include "sim/types.hpp"

namespace bg::fwk {

class FwkScheduler {
 public:
  explicit FwkScheduler(int cores);

  void enqueue(kernel::Thread& t, int core, bool daemon = false,
               bool front = false);
  void remove(kernel::Thread& t);

  /// Next runnable thread for the core (daemons first, FIFO within
  /// class). Does not pop — the picked thread stays associated.
  kernel::Thread* pickNext(int core);

  /// Rotate the current thread to the back of its class (timeslice
  /// expiry / yield).
  void rotate(kernel::Thread& t);

  bool isDaemon(const kernel::Thread& t) const;
  /// True if a daemon on `core` is ready to run (preemption trigger).
  bool daemonReady(int core) const;
  /// True if any other ready thread shares the core with t.
  bool hasOtherReady(int core, const kernel::Thread& t) const;

  /// Round-robin core assignment for new user threads.
  int nextUserCore();

 private:
  struct CoreQ {
    std::deque<kernel::Thread*> daemons;
    std::deque<kernel::Thread*> users;
  };
  std::vector<CoreQ> queues_;
  int rrCursor_ = 0;
};

}  // namespace bg::fwk
