// A processor core: executes VM instructions for the bound thread,
// charges cycle costs through the cache/TLB models, and delivers traps
// and interrupts to the attached kernel.
//
// Execution is batched: a core runs straight-line instructions until a
// quantum of simulated cycles accumulates or a trap occurs, then
// schedules its next slice. Interrupts raised by events are taken at
// slice boundaries — the same granularity at which real interrupts wait
// for instruction retirement.
#pragma once

#include <cstdint>

#include "hw/addr.hpp"
#include "hw/cache.hpp"
#include "hw/kernel_if.hpp"
#include "hw/mmu.hpp"
#include "hw/thread_ctx.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace bg::hw {

class Node;

class Core {
 public:
  Core(int id, Node& node);
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  int id() const { return id_; }
  Node& node() { return node_; }
  Mmu& mmu() { return mmu_; }
  const Mmu& mmu() const { return mmu_; }
  CacheArray& l1() { return l1_; }

  /// Bind a thread to this core (it becomes the current thread) and
  /// ensure execution is scheduled. Does not charge switch cost.
  void bind(ThreadCtx* t);
  ThreadCtx* current() { return cur_; }

  /// Ensure a run slice is scheduled (idempotent).
  void kick();

  /// Raise an asynchronous interrupt; taken at the next slice boundary.
  void raise(Irq irq);

  /// Program the per-core decrementer; 0 disables it. The kernel
  /// re-arms it from its tick handler (CNK simply never arms it).
  void setDecrementer(sim::Cycle delay);

  /// Translate + charge memory-system cost for one data access of
  /// `len` bytes at va. Handles TLB refill via the kernel and DAC
  /// traps. On failure the kernel's fault path has already run.
  struct AccessOutcome {
    bool ok = false;
    sim::Cycle cost = 0;
    PAddr pa = 0;
  };
  AccessOutcome dataAccess(ThreadCtx& t, VAddr va, std::uint32_t len,
                           Access access);

  /// Cost-only touch of [va, va+bytes) with the given stride, modelling
  /// cache-line traffic without moving data.
  struct TouchOutcome {
    bool ok = false;
    sim::Cycle cost = 0;
  };
  TouchOutcome memTouch(ThreadCtx& t, VAddr va, std::uint32_t bytes,
                        std::uint32_t stride, bool write);

  /// Cycles a run slice executes before the core re-arms it; the
  /// event engine's near window is sized against this.
  static constexpr sim::Cycle kDefaultQuantum = 4000;

  std::uint64_t cyclesBusy() const { return cyclesBusy_; }
  std::uint64_t slicesRun() const { return slicesRun_; }
  bool idle() const { return !sliceScheduled_; }

  /// Flush L1 (reproducible-reset path).
  void flushCaches() { l1_.flushAll(); }

  /// Fault-plane hooks: a hung core stops executing slices and
  /// ignores kicks until unhang() — it makes no forward progress and
  /// takes no interrupts, exactly the failure the service node's
  /// heartbeat monitor exists to catch. Reboot-in-place clears it.
  void hang() { hung_ = true; }
  void unhang() {
    if (!hung_) return;
    hung_ = false;
    kick();
  }

  /// Hash of the architectural state visible to a logic scan: register
  /// file, pc, TLB contents, pending interrupts.
  std::uint64_t scanHash() const;

 private:
  // Persistent sim::Task objects for the two recurring events a core
  // generates (its run slice and its decrementer): re-arming schedules
  // the same object again, so the hot slice loop never constructs a
  // closure.
  struct SliceTask final : sim::Task {
    explicit SliceTask(Core* c) : core(c) {}
    void run() override { core->runSlice(); }
    Core* core;
  };
  struct DecTask final : sim::Task {
    explicit DecTask(Core* c) : core(c) {}
    void run() override { core->decFired(); }
    Core* core;
  };

  void runSlice();
  void scheduleSlice(sim::Cycle delay);
  void decFired();
  /// Execute one instruction of t; returns cost; sets *stop when the
  /// slice must end (trap, block, halt, fault).
  sim::Cycle execOne(ThreadCtx& t, bool* stop);
  sim::Cycle lineCost(PAddr pa, sim::Cycle atRelativeCost);

  int id_;
  Node& node_;
  Mmu mmu_;
  CacheArray l1_;
  ThreadCtx* cur_ = nullptr;
  std::uint32_t pendingIrqs_ = 0;
  bool sliceScheduled_ = false;
  bool inSlice_ = false;
  sim::Cycle sliceCost_ = 0;  // cost accumulated in the slice in progress
  SliceTask sliceTask_{this};
  DecTask decTask_{this};
  sim::EventId decEvent_ = 0;
  sim::Cycle decDeadline_ = 0;  // absolute cycle the decrementer expires; 0 = off
  sim::Cycle decEventAt_ = 0;   // fire time of the outstanding dec event
  std::uint64_t cyclesBusy_ = 0;
  std::uint64_t slicesRun_ = 0;
  bool hung_ = false;       // core stopped by fault injection
  bool ueLatched_ = false;  // uncorrectable ECC hit the in-flight access
};

}  // namespace bg::hw
