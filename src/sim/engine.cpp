#include "sim/engine.hpp"

#include <algorithm>
#include <bit>

namespace bg::sim {

Engine::~Engine() = default;

std::uint32_t Engine::allocSlot() {
  if (freeHead_ != kNoSlot) {
    const std::uint32_t s = freeHead_;
    freeHead_ = slots_[s].next;
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
  slot.next = freeHead_;
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
  Bucket& bk = ring_[b];
  slots_[s].next = kNoSlot;
  if (bk.head == kNoSlot) {
    bk.head = s;
    occupied_[b >> 6] |= 1ull << (b & 63);
    summary_[b >> 12] |= 1ull << ((b >> 6) & 63);
  } else {
    slots_[bk.tail].next = s;
  }
  bk.tail = s;
}

void Engine::popBucketHead(std::uint32_t b) {
  Bucket& bk = ring_[b];
  bk.head = slots_[bk.head].next;  // tail is stale once head is kNoSlot
  if (bk.head != kNoSlot) return;
  std::uint64_t& word = occupied_[b >> 6];
  word &= ~(1ull << (b & 63));
  if (word == 0) summary_[b >> 12] &= ~(1ull << ((b >> 6) & 63));
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

void Engine::dropHeapTombstones() {
  while (!heap_.empty() && !slots_[heap_.front().slot].active) {
    freeSlot(heap_.front().slot);
    heapDiscardTop();
  }
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
  for (std::uint32_t sw = 0; sw < kSummaryWords; ++sw) {
    std::uint64_t words = summary_[sw];
    summary_[sw] = 0;
    while (words != 0) {
      const std::uint32_t w =
          (sw << 6) + static_cast<std::uint32_t>(std::countr_zero(words));
      words &= words - 1;
      std::uint64_t bits = occupied_[w];
      occupied_[w] = 0;
      while (bits != 0) {
        const std::uint32_t b =
            (w << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        for (std::uint32_t s = ring_[b].head; s != kNoSlot;) {
          const std::uint32_t next = slots_[s].next;
          freeSlot(s);
          s = next;
        }
        ring_[b].head = kNoSlot;
      }
    }
  }
}

std::uint32_t Engine::nextOccupiedBucket(std::uint32_t from) const {
  const std::uint32_t w = from >> 6;
  const std::uint64_t word = occupied_[w] & (~0ull << (from & 63));
  if (word != 0) {
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
  }
  // The next nonempty word after w in circular order, found through
  // the summary; w itself comes last (its bits below `from` are the
  // window's far end).
  const std::uint32_t after = (w + 1) & (kRingWords - 1);
  std::uint32_t sw = after >> 6;
  std::uint64_t sum = summary_[sw] & (~0ull << (after & 63));
  for (std::uint32_t n = 0; n <= kSummaryWords; ++n) {
    if (sum != 0) {
      const std::uint32_t ow =
          (sw << 6) + static_cast<std::uint32_t>(std::countr_zero(sum));
      return (ow << 6) +
             static_cast<std::uint32_t>(std::countr_zero(occupied_[ow]));
    }
    sw = (sw + 1) & (kSummaryWords - 1);
    sum = summary_[sw];
  }
  return kNoSlot;  // unreachable while ringLive_ > 0
}

std::uint32_t Engine::firstLiveBucket() {
  // Walk occupied buckets in time order from the window start,
  // freeing tombstoned prefixes.
  std::uint32_t b = static_cast<std::uint32_t>(winStart_) & kRingMask;
  for (;;) {
    b = nextOccupiedBucket(b);
    Bucket& bk = ring_[b];
    while (bk.head != kNoSlot && !slots_[bk.head].active) {
      const std::uint32_t dead = bk.head;
      popBucketHead(b);
      freeSlot(dead);
    }
    if (bk.head != kNoSlot) return b;
    b = (b + 1) & kRingMask;
  }
}

std::uint32_t Engine::peekNextBucket() {
  if (liveCount_ == 0) return kNoSlot;
  if (ringLive_ == 0) {
    // Everything live is far-future. Drop ring tombstones wholesale,
    // skip cancelled heap tops, and slide the window to the next live
    // time (which brings that event into the ring).
    clearRingTombstones();
    dropHeapTombstones();
    migrateInto(heap_.front().time);
  }
  const std::uint32_t b = firstLiveBucket();
  // Restore the window invariant before dispatch: heap events must all
  // lie past the (possibly advanced) window end.
  migrateInto(slots_[ring_[b].head].time);
  return b;
}

bool Engine::step() {
  const std::uint32_t b = peekNextBucket();
  if (b == kNoSlot) return false;
  const std::uint32_t s = ring_[b].head;
  popBucketHead(b);
  --ringLive_;
  --liveCount_;
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
  if (ringLive_ > 0) return slots_[ring_[firstLiveBucket()].head].time;
  clearRingTombstones();
  dropHeapTombstones();
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
