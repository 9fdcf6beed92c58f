#include "fwk/scheduler.hpp"

#include <algorithm>

namespace bg::fwk {

FwkScheduler::FwkScheduler(int cores)
    : queues_(static_cast<std::size_t>(cores)) {}

void FwkScheduler::enqueue(kernel::Thread& t, int core, bool daemon,
                           bool front) {
  CoreQ& q = queues_[static_cast<std::size_t>(core)];
  auto& dq = daemon ? q.daemons : q.users;
  if (std::find(dq.begin(), dq.end(), &t) == dq.end()) {
    if (front) {
      dq.push_front(&t);
    } else {
      dq.push_back(&t);
    }
  }
  t.ctx.coreAffinity = core;
}

void FwkScheduler::remove(kernel::Thread& t) {
  for (CoreQ& q : queues_) {
    q.daemons.erase(std::remove(q.daemons.begin(), q.daemons.end(), &t),
                    q.daemons.end());
    q.users.erase(std::remove(q.users.begin(), q.users.end(), &t),
                  q.users.end());
  }
}

kernel::Thread* FwkScheduler::pickNext(int core) {
  CoreQ& q = queues_[static_cast<std::size_t>(core)];
  for (kernel::Thread* t : q.daemons) {
    if (t->ctx.runnable()) return t;
  }
  for (kernel::Thread* t : q.users) {
    if (t->ctx.runnable()) return t;
  }
  return nullptr;
}

void FwkScheduler::rotate(kernel::Thread& t) {
  for (CoreQ& q : queues_) {
    for (auto* dq : {&q.daemons, &q.users}) {
      auto it = std::find(dq->begin(), dq->end(), &t);
      if (it != dq->end()) {
        dq->erase(it);
        dq->push_back(&t);
        return;
      }
    }
  }
}

bool FwkScheduler::isDaemon(const kernel::Thread& t) const {
  for (const CoreQ& q : queues_) {
    if (std::find(q.daemons.begin(), q.daemons.end(), &t) !=
        q.daemons.end()) {
      return true;
    }
  }
  return false;
}

bool FwkScheduler::daemonReady(int core) const {
  const CoreQ& q = queues_[static_cast<std::size_t>(core)];
  return std::any_of(q.daemons.begin(), q.daemons.end(),
                     [](const kernel::Thread* t) {
                       return t->ctx.state == hw::ThreadState::kReady;
                     });
}

bool FwkScheduler::hasOtherReady(int core,
                                 const kernel::Thread& t) const {
  const CoreQ& q = queues_[static_cast<std::size_t>(core)];
  auto otherReady = [&](const kernel::Thread* c) {
    return c != &t && c->ctx.state == hw::ThreadState::kReady;
  };
  return std::any_of(q.daemons.begin(), q.daemons.end(), otherReady) ||
         std::any_of(q.users.begin(), q.users.end(), otherReady);
}

int FwkScheduler::nextUserCore() {
  const int c = rrCursor_;
  rrCursor_ = (rrCursor_ + 1) % static_cast<int>(queues_.size());
  return c;
}

}  // namespace bg::fwk
