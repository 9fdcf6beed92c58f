#include "cnk/scheduler.hpp"

#include <algorithm>

namespace bg::cnk {

CnkScheduler::CnkScheduler(int cores, int maxThreadsPerCore)
    : maxThreadsPerCore_(maxThreadsPerCore),
      slots_(static_cast<std::size_t>(cores)) {}

bool CnkScheduler::assign(kernel::Thread& t, int core) {
  auto& slot = slots_[static_cast<std::size_t>(core)];
  if (static_cast<int>(slot.size()) >= maxThreadsPerCore_) return false;
  slot.push_back(&t);
  t.ctx.coreAffinity = core;
  return true;
}

void CnkScheduler::remove(kernel::Thread& t) {
  for (auto& slot : slots_) {
    slot.erase(std::remove(slot.begin(), slot.end(), &t), slot.end());
  }
}

kernel::Thread* CnkScheduler::pickNext(int core) {
  auto& slot = slots_[static_cast<std::size_t>(core)];
  // A thread spinning in-kernel (no-yield block) holds the core.
  for (kernel::Thread* t : slot) {
    if (t->ctx.state == hw::ThreadState::kBlocked && !t->ctx.yieldOnBlock) {
      return nullptr;
    }
  }
  for (kernel::Thread* t : slot) {
    if (t->ctx.runnable()) return t;
  }
  return nullptr;
}

void CnkScheduler::reapDone() {
  for (auto& slot : slots_) {
    slot.erase(std::remove_if(slot.begin(), slot.end(),
                              [](kernel::Thread* t) {
                                return t->ctx.done();
                              }),
               slot.end());
  }
}

void CnkScheduler::clear() {
  for (auto& slot : slots_) slot.clear();
}

}  // namespace bg::cnk
