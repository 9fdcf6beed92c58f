// Deterministic discrete-event simulation engine.
//
// Single-threaded; events are totally ordered by (time, sequence
// number), so two events scheduled for the same cycle fire in
// scheduling order. This total order is what makes CNK's
// cycle-reproducibility experiments (paper §III) exactly testable.
//
// Internally the engine is a two-tier scheduler tuned for the traffic
// the simulated machine generates:
//
//  * a calendar ring of kRingSize near-future buckets (one simulated
//    cycle per bucket) absorbs the dense short-delay stream from
//    cores, links, and DMA engines in O(1) per event;
//  * a binary min-heap holds far-future events (timers, watchdogs,
//    job arrivals) and migrates them into the ring as the window
//    slides forward.
//
// Events are stored in generation-checked slots: cancel() is O(1),
// destroys the handler's captures immediately, and never leaves an
// unbounded tombstone list (the old linear `cancelled_` scan grew
// without bound under decrementer re-arm churn). Handlers are
// sim::InlineFn — captures of up to three words live inline in the
// slot, so the common [this] closure never allocates.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/types.hpp"

namespace bg::sim {

using EventFn = InlineFn;

/// Opaque handle for cancelling a scheduled event. 0 is never a valid
/// handle (callers use it as "no event outstanding").
using EventId = std::uint64_t;

/// Pre-registered handler scheduled with zero per-event setup: a
/// component with a long-lived recurring action (a core's run slice,
/// its decrementer) implements Task once and passes the same object to
/// scheduleTask() every time — no closure is constructed at all.
class Task {
 public:
  virtual ~Task() = default;
  virtual void run() = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  Cycle now() const { return now_; }

  /// Schedule fn to run `delay` cycles from now. Returns a handle that
  /// can be passed to cancel().
  EventId schedule(Cycle delay, EventFn fn) {
    return scheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedule fn at an absolute cycle (must be >= now()).
  EventId scheduleAt(Cycle when, EventFn fn);

  /// Schedule a pre-registered task (no closure allocation). The task
  /// must outlive the event (or be cancelled first).
  EventId scheduleTask(Cycle delay, Task* task) {
    return scheduleTaskAt(now_ + delay, task);
  }
  EventId scheduleTaskAt(Cycle when, Task* task);

  /// Cancel a pending event. O(1): the slot is generation-checked, so
  /// cancelling an already-fired or unknown handle is a safe no-op and
  /// never corrupts the pending count.
  void cancel(EventId id);

  /// Run a single event. Returns false if no live events remain.
  bool step();

  /// Run until the queue is empty or `limit` events have fired.
  /// Returns the number of events processed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);

  /// Run all events with time <= t, then advance the clock to t.
  void runUntil(Cycle t);

  /// Run until pred() is true (checked after each event) or the queue
  /// drains. Returns true if pred was satisfied.
  bool runWhile(const std::function<bool()>& pred,
                std::uint64_t limit = UINT64_MAX);

  /// Live (scheduled, not cancelled, not yet fired) events.
  std::size_t pendingEvents() const { return liveCount_; }
  std::uint64_t eventsProcessed() const { return processed_; }

 private:
  static constexpr std::uint32_t kRingBits = 8;
  static constexpr std::uint32_t kRingSize = 1u << kRingBits;
  static constexpr std::uint32_t kRingMask = kRingSize - 1;
  static constexpr std::uint32_t kRingWords = kRingSize / 64;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  enum class Loc : std::uint8_t { kFree, kRing, kHeap };

  struct Slot {
    InlineFn fn;
    Task* task = nullptr;
    Cycle time = 0;
    std::uint64_t seq = 0;       // total-order tiebreaker within a cycle
    std::uint32_t gen = 1;       // bumped on free; stale handles no-op
    std::uint32_t nextFree = kNoSlot;
    Loc loc = Loc::kFree;
    bool active = false;
  };

  struct Bucket {
    std::vector<std::uint32_t> items;  // slot indices, seq-ascending
    std::uint32_t head = 0;            // consumed prefix
  };

  struct HeapItem {
    Cycle time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct HeapLater {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t s);
  EventId place(Cycle when, std::uint32_t s);
  void pushBucket(std::uint32_t s);
  void heapDiscardTop();
  void maybeCompactHeap();
  /// Advance the window start and pull now-near heap events into the
  /// ring (each event migrates at most once).
  void migrateInto(Cycle newWinStart);
  /// Drop every ring entry (valid only while ringLive_ == 0: all ring
  /// entries are tombstones).
  void clearRingTombstones();
  /// First occupied bucket in circular window order starting at `from`.
  std::uint32_t nextOccupiedBucket(std::uint32_t from) const;
  /// GC tombstones, slide the window, and return the slot of the next
  /// live event (kNoSlot when drained). After a successful call the
  /// event sits at ring_[peekBucket_]. Because this may advance the
  /// window, the caller MUST dispatch the returned event immediately
  /// (only step() calls it) — otherwise a later schedule() at a cycle
  /// below the new window start would alias ring buckets.
  std::uint32_t peekNextSlot();
  /// Earliest live event time, garbage-collecting tombstones but
  /// never sliding the window (safe to call without dispatching).
  /// Only meaningful while liveCount_ > 0.
  Cycle nextEventTime();

  Cycle now_ = 0;
  Cycle winStart_ = 0;  // earliest time that may still be in the ring
  std::uint64_t nextSeq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t liveCount_ = 0;    // live events, both tiers
  std::size_t ringLive_ = 0;     // live events in the ring
  std::size_t ringEntries_ = 0;  // ring entries incl. tombstones
  std::size_t heapLive_ = 0;     // live events in the heap
  std::uint32_t peekBucket_ = 0;

  std::vector<Slot> slots_;
  std::uint32_t freeHead_ = kNoSlot;
  Bucket ring_[kRingSize];
  std::uint64_t occupied_[kRingWords] = {};
  std::vector<HeapItem> heap_;  // min-heap by (time, seq)
};

}  // namespace bg::sim
