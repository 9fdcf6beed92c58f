// CNK's scheduler (paper §IV-B1, §VI-C).
//
// Non-preemptive, fixed core affinity, a small fixed number of thread
// slots per core. The only scheduling decision is among threads
// sharing a core, taken when a thread blocks on a futex or explicitly
// yields. A thread blocked in a function-shipped I/O syscall does NOT
// yield the core (ctx.yieldOnBlock == false): the core spins in-kernel
// until the reply arrives, which is what keeps syscalls free of kernel
// context switches.
#pragma once

#include <cstdint>
#include <vector>

#include "kernel/process.hpp"

namespace bg::cnk {

class CnkScheduler {
 public:
  /// BG/P introduced three hardware-schedulable pthreads per core
  /// (paper footnote 3); next-gen makes it compile-time variable.
  explicit CnkScheduler(int cores, int maxThreadsPerCore = 3);

  int maxThreadsPerCore() const { return maxThreadsPerCore_; }

  /// Assign a thread to a core slot; returns false if the core is full.
  bool assign(kernel::Thread& t, int core);
  void remove(kernel::Thread& t);

  /// Scheduling decision for a core. Returns nullptr when no thread may
  /// run — including when a no-yield thread is spinning in a syscall.
  kernel::Thread* pickNext(int core);

  std::size_t threadCount(int core) const {
    return slots_[static_cast<std::size_t>(core)].size();
  }

  /// Garbage-collect halted threads from the slot lists.
  void reapDone();

  void clear();

 private:
  int maxThreadsPerCore_;
  std::vector<std::vector<kernel::Thread*>> slots_;
};

}  // namespace bg::cnk
