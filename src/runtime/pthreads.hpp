// NPTL-style pthread runtime (paper §IV-B1).
//
// pthread_create is the exact sequence the paper walks through:
// malloc/mmap the stack, mprotect the guard range (which CNK remembers
// and attaches to the new thread's DAC registers), then clone with the
// static NPTL flag set. Join waits on the child-tid word that the
// kernel clears and futex-wakes at thread exit
// (CLONE_CHILD_CLEARTID). Mutexes and barriers are futex-based with
// handover unlocks.
#pragma once

#include <cstdint>
#include <map>

#include "runtime/libc.hpp"

namespace bg::rt {

class Pthreads {
 public:
  explicit Pthreads(Malloc& malloc) : malloc_(malloc) {}

  hw::HandlerResult create(hw::Core& core, kernel::Thread& t,
                           std::uint64_t startPc, std::uint64_t arg);
  hw::HandlerResult join(hw::Core& core, kernel::Thread& t,
                         std::uint64_t tid);
  hw::HandlerResult mutexLock(hw::Core& core, kernel::Thread& t,
                              hw::VAddr mutex);
  hw::HandlerResult mutexUnlock(hw::Core& core, kernel::Thread& t,
                                hw::VAddr mutex);
  hw::HandlerResult barrierWait(hw::Core& core, kernel::Thread& t,
                                hw::VAddr barrier, std::uint64_t count);

 private:
  Malloc& malloc_;
  // (pid, tid) -> tid word address, for join.
  std::map<std::pair<std::uint32_t, std::uint64_t>, hw::VAddr> tidWords_;
};

}  // namespace bg::rt
