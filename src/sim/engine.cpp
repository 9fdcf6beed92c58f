#include "sim/engine.hpp"

#include <algorithm>
#include <bit>

namespace bg::sim {

Engine::~Engine() = default;

std::uint32_t Engine::allocSlot() {
  if (freeHead_ != kNoSlot) {
    const std::uint32_t s = freeHead_;
    freeHead_ = slots_[s].nextFree;
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::freeSlot(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.fn.reset();
  slot.task = nullptr;
  slot.active = false;
  slot.loc = Loc::kFree;
  ++slot.gen;
  slot.nextFree = freeHead_;
  freeHead_ = s;
}

EventId Engine::place(Cycle when, std::uint32_t s) {
  assert(when >= now_ && "cannot schedule into the past");
  if (when < now_) when = now_;  // defensive clamp if asserts are off
  Slot& slot = slots_[s];
  slot.time = when;
  slot.seq = nextSeq_++;
  slot.active = true;
  ++liveCount_;
  if (when - winStart_ < kRingSize) {
    slot.loc = Loc::kRing;
    ++ringLive_;
    pushBucket(s);
  } else {
    slot.loc = Loc::kHeap;
    ++heapLive_;
    heap_.push_back(HeapItem{when, slot.seq, s});
    std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
  }
  return (static_cast<std::uint64_t>(s) + 1) << 32 | slot.gen;
}

EventId Engine::scheduleAt(Cycle when, EventFn fn) {
  const std::uint32_t s = allocSlot();
  slots_[s].fn = std::move(fn);
  return place(when, s);
}

EventId Engine::scheduleTaskAt(Cycle when, Task* task) {
  assert(task != nullptr);
  const std::uint32_t s = allocSlot();
  slots_[s].task = task;
  return place(when, s);
}

void Engine::pushBucket(std::uint32_t s) {
  const std::uint32_t b =
      static_cast<std::uint32_t>(slots_[s].time) & kRingMask;
  ring_[b].items.push_back(s);
  ++ringEntries_;
  occupied_[b >> 6] |= 1ull << (b & 63);
}

void Engine::cancel(EventId id) {
  const std::uint64_t hi = id >> 32;
  if (hi == 0 || hi > slots_.size()) return;
  const std::uint32_t s = static_cast<std::uint32_t>(hi - 1);
  Slot& slot = slots_[s];
  if (!slot.active || slot.gen != static_cast<std::uint32_t>(id)) return;
  slot.active = false;
  slot.fn.reset();  // release captures now, not when the slot drains
  slot.task = nullptr;
  --liveCount_;
  if (slot.loc == Loc::kRing) {
    --ringLive_;
  } else {
    --heapLive_;
    maybeCompactHeap();
  }
}

void Engine::heapDiscardTop() {
  std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
  heap_.pop_back();
}

void Engine::maybeCompactHeap() {
  // Keep the far tier at most half tombstones; cancelled far-future
  // events (watchdogs that were serviced) are dropped in bulk instead
  // of waiting — possibly forever — to surface at the top.
  if (heap_.size() < 64 || heapLive_ * 2 >= heap_.size()) return;
  std::size_t out = 0;
  for (const HeapItem& it : heap_) {
    if (slots_[it.slot].active) {
      heap_[out++] = it;
    } else {
      freeSlot(it.slot);
    }
  }
  heap_.resize(out);
  std::make_heap(heap_.begin(), heap_.end(), HeapLater{});
}

void Engine::migrateInto(Cycle newWinStart) {
  if (newWinStart > winStart_) winStart_ = newWinStart;
  const Cycle winEnd = winStart_ + kRingSize;
  while (!heap_.empty() && heap_.front().time < winEnd) {
    const HeapItem it = heap_.front();
    heapDiscardTop();
    Slot& slot = slots_[it.slot];
    if (!slot.active) {
      freeSlot(it.slot);
      continue;
    }
    slot.loc = Loc::kRing;
    --heapLive_;
    ++ringLive_;
    pushBucket(it.slot);
  }
}

void Engine::clearRingTombstones() {
  for (std::uint32_t w = 0; w < kRingWords; ++w) {
    std::uint64_t bits = occupied_[w];
    while (bits != 0) {
      const std::uint32_t b =
          (w << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      Bucket& bk = ring_[b];
      for (std::uint32_t i = bk.head;
           i < static_cast<std::uint32_t>(bk.items.size()); ++i) {
        freeSlot(bk.items[i]);
      }
      ringEntries_ -= bk.items.size() - bk.head;
      bk.items.clear();
      bk.head = 0;
    }
    occupied_[w] = 0;
  }
}

std::uint32_t Engine::nextOccupiedBucket(std::uint32_t from) const {
  std::uint32_t w = from >> 6;
  std::uint64_t word = occupied_[w] & (~0ull << (from & 63));
  for (std::uint32_t n = 0; n <= kRingWords; ++n) {
    if (word != 0) {
      return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
    }
    w = (w + 1) & (kRingWords - 1);
    word = occupied_[w];
  }
  return kNoSlot;  // unreachable while ringLive_ > 0
}

std::uint32_t Engine::peekNextSlot() {
  for (;;) {
    if (liveCount_ == 0) return kNoSlot;
    if (ringLive_ == 0) {
      // Everything live is far-future. Drop ring tombstones wholesale,
      // skip cancelled heap tops, and slide the window to the next
      // live time.
      if (ringEntries_ > 0) clearRingTombstones();
      while (!heap_.empty() && !slots_[heap_.front().slot].active) {
        freeSlot(heap_.front().slot);
        heapDiscardTop();
      }
      migrateInto(heap_.front().time);
      continue;
    }
    // The earliest live event is in the ring window. Walk occupied
    // buckets in time order, garbage-collecting tombstoned prefixes.
    std::uint32_t b = static_cast<std::uint32_t>(winStart_) & kRingMask;
    for (;;) {
      const std::uint32_t ob = nextOccupiedBucket(b);
      Bucket& bk = ring_[ob];
      while (bk.head < static_cast<std::uint32_t>(bk.items.size()) &&
             !slots_[bk.items[bk.head]].active) {
        freeSlot(bk.items[bk.head]);
        ++bk.head;
        --ringEntries_;
      }
      if (bk.head == bk.items.size()) {
        bk.items.clear();
        bk.head = 0;
        occupied_[ob >> 6] &= ~(1ull << (ob & 63));
        b = (ob + 1) & kRingMask;
        continue;
      }
      const std::uint32_t s = bk.items[bk.head];
      // Restore the window invariant before dispatch: heap events must
      // all lie past the (possibly advanced) window end.
      migrateInto(slots_[s].time);
      peekBucket_ = ob;
      return s;
    }
  }
}

bool Engine::step() {
  const std::uint32_t s = peekNextSlot();
  if (s == kNoSlot) return false;
  Bucket& bk = ring_[peekBucket_];
  ++bk.head;
  --ringEntries_;
  --ringLive_;
  --liveCount_;
  if (bk.head == bk.items.size()) {
    bk.items.clear();
    bk.head = 0;
    occupied_[peekBucket_ >> 6] &= ~(1ull << (peekBucket_ & 63));
  }
  Slot& slot = slots_[s];
  now_ = slot.time;
  ++processed_;
  if (slot.task != nullptr) {
    Task* task = slot.task;
    freeSlot(s);
    task->run();
  } else {
    InlineFn fn = std::move(slot.fn);
    freeSlot(s);
    fn();
  }
  return true;
}

std::uint64_t Engine::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

Cycle Engine::nextEventTime() {
  if (ringLive_ > 0) {
    std::uint32_t b = static_cast<std::uint32_t>(winStart_) & kRingMask;
    for (;;) {
      const std::uint32_t ob = nextOccupiedBucket(b);
      Bucket& bk = ring_[ob];
      while (bk.head < static_cast<std::uint32_t>(bk.items.size()) &&
             !slots_[bk.items[bk.head]].active) {
        freeSlot(bk.items[bk.head]);
        ++bk.head;
        --ringEntries_;
      }
      if (bk.head == bk.items.size()) {
        bk.items.clear();
        bk.head = 0;
        occupied_[ob >> 6] &= ~(1ull << (ob & 63));
        b = (ob + 1) & kRingMask;
        continue;
      }
      return slots_[bk.items[bk.head]].time;
    }
  }
  if (ringEntries_ > 0) clearRingTombstones();
  while (!heap_.empty() && !slots_[heap_.front().slot].active) {
    freeSlot(heap_.front().slot);
    heapDiscardTop();
  }
  return heap_.front().time;
}

void Engine::runUntil(Cycle t) {
  while (liveCount_ > 0 && nextEventTime() <= t) step();
  if (now_ < t) now_ = t;
}

bool Engine::runWhile(const std::function<bool()>& pred,
                      std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit) {
    if (pred()) return true;
    if (!step()) return pred();
    ++n;
  }
  return pred();
}

}  // namespace bg::sim
