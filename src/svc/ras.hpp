// Service-node RAS aggregation (paper §III, §V-B): every kernel keeps
// a small local RAS ring; the service node periodically drains them
// all into one machine-wide stream, throttles event storms per code,
// and reacts to fatal events (node loss). Fault-injection goes through
// the same path, so tests can kill nodes deterministically and watch
// the identical plumbing a real machine check would take.
//
// The aggregator also watches per-node kWarn rates (recoverable
// machine checks, e.g. L1 parity scrubs): a node whose warn count
// crosses a sliding-window threshold is reported to the warn-storm
// handler so the service node can drain it predictively, before the
// fault goes fatal. Its cursors and window state serialize into the
// service-node checkpoint so a restarted control plane resumes
// polling exactly where the crashed one stopped — no event is
// double-counted or silently skipped.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "kernel/kernel.hpp"
#include "sim/bytes.hpp"
#include "sim/types.hpp"

namespace bg::svc {

/// One entry of the machine-wide stream: the kernel-local event plus
/// which compute node reported it.
struct SvcRasEvent {
  int node = 0;
  kernel::RasEvent event;
};

struct RasAggregatorConfig {
  /// Per-code token window: at most maxPerCodePerWindow events of one
  /// code enter the stream per window; the rest are counted as
  /// throttled. Fatal events are never throttled.
  sim::Cycle throttleWindowCycles = 1'000'000;
  std::uint32_t maxPerCodePerWindow = 16;
  /// Stream bound; oldest entries drop (counted) once exceeded.
  std::size_t streamCapacity = 4096;
  /// Predictive-drain trigger: a node logging >= warnDrainThreshold
  /// kWarn events within warnWindowCycles is reported to the warn
  /// handler. 0 disables the watch.
  sim::Cycle warnWindowCycles = 2'000'000;
  std::uint32_t warnDrainThreshold = 0;
  /// Link-health predictor: a node logging >= linkSickThreshold
  /// kLinkDegraded events (CRC retry storms) within a 2M-cycle window
  /// is declared link-sick; a kLinkDead event declares it sick
  /// immediately. 0 disables the degraded-window watch (kLinkDead
  /// still fires the handler when one is set).
  std::uint32_t linkSickThreshold = 0;
};

class RasAggregator {
 public:
  explicit RasAggregator(RasAggregatorConfig cfg = {});

  /// Register a node's kernel. Polling resumes from each kernel's
  /// current sequence number, so pre-attach history is not replayed.
  void attach(int node, kernel::KernelBase* k);

  /// Drain new events from every attached kernel into the stream.
  /// Returns the number of events accepted (stored) this poll.
  std::size_t poll(sim::Cycle now);

  /// Called during poll() for every fatal event seen (stored or not).
  using FatalHandler = std::function<void(int node, const kernel::RasEvent&)>;
  void setFatalHandler(FatalHandler f) { onFatal_ = std::move(f); }

  /// Called during poll() when a node's kWarn count crosses the
  /// sliding-window threshold. The node's window is cleared before the
  /// call, so one storm fires the handler once.
  using WarnStormHandler = std::function<void(int node, sim::Cycle cycle)>;
  void setWarnStormHandler(WarnStormHandler f) { onWarnStorm_ = std::move(f); }

  /// Called during poll() for every kIoNodeDead event seen (stored or
  /// throttled) — a compute node declaring its I/O node lost to a
  /// timeout storm. The service node reacts with CIOD failover (spare)
  /// or drain + reboot (no spare).
  using IoDeadHandler = std::function<void(int node, const kernel::RasEvent&)>;
  void setIoDeadHandler(IoDeadHandler f) { onIoDead_ = std::move(f); }

  /// Called during poll() when a node's torus fabric goes bad: a
  /// kLinkDead event fires it immediately (`dead` = true); kLinkDegraded
  /// events fire it once their sliding-window count crosses
  /// linkSickThreshold (`dead` = false). The degraded window is cleared
  /// before the call, so one retry storm fires the handler once. The
  /// service node reacts with proactive checkpoint-then-migrate.
  using LinkSickHandler =
      std::function<void(int node, sim::Cycle cycle, bool dead)>;
  void setLinkSickHandler(LinkSickHandler f) { onLinkSick_ = std::move(f); }

  /// Fault injection: report a fatal kNodeFailure against `node`'s
  /// kernel; the next poll() routes it like any other fatal event.
  void injectNodeFailure(int node, std::uint64_t detail);

  /// Service-node-originated event (e.g. the front door's admission
  /// plane): there is no kernel ring behind it, so it enters the
  /// stream directly as node -1, but passes the same per-code throttle
  /// window and feeds the same severity/code tallies as kernel events.
  /// Reaction handlers (fatal / warn-storm / io-dead) are node-scoped
  /// and are not invoked for local events.
  void reportLocal(kernel::RasEvent e);

  /// kWarn events from `node` inside the sliding window ending at the
  /// node's most recent warn.
  std::uint32_t warnsInWindow(int node) const;
  /// Forget a node's warn history (after a predictive drain + scrub
  /// the node starts clean).
  void clearWarns(int node);

  const std::deque<SvcRasEvent>& stream() const { return stream_; }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t throttled() const { return throttled_; }
  /// Events lost before the service node saw them (seq gaps the
  /// cursor stepped over after a kernel-ring overflow) plus
  /// stream-bound drops on our side. Entries the ring evicted AFTER we
  /// consumed them are not losses and are not counted.
  std::uint64_t dropped() const;
  std::uint64_t countBySeverity(kernel::RasEvent::Severity s) const {
    return bySeverity_[static_cast<std::size_t>(s)];
  }
  std::uint64_t countByCode(kernel::RasEvent::Code c) const {
    return byCode_[static_cast<std::size_t>(c)];
  }

  /// Serialize cursors, throttle windows, warn windows, and tallies
  /// (not the kernels themselves) into a checkpoint image.
  void saveStateTo(sim::ByteWriter& w) const;
  /// Serialize the stream: its length, then each event (encodeEvent,
  /// kEventBytes each). saveStateTo followed by saveStreamTo is what
  /// loadFrom reads.
  void saveStreamTo(sim::ByteWriter& w) const;
  static void encodeEvent(sim::ByteWriter& w, const SvcRasEvent& e);
  static constexpr std::size_t kEventBytes = 38;

  /// Stream positions, counted over every event ever stored: the
  /// first one still held and one past the newest.
  std::uint64_t streamBegin() const { return accepted_ - stream_.size(); }
  std::uint64_t streamEnd() const { return accepted_; }

  /// Restore from a checkpoint. Sources must already be attach()ed in
  /// the same order; their cursors are overwritten with the persisted
  /// values so polling resumes where the checkpointed instance
  /// stopped. Returns false on a malformed image.
  bool loadFrom(sim::ByteReader& r);

 private:
  struct Source {
    int node = 0;
    kernel::KernelBase* kernel = nullptr;
    std::uint64_t nextSeq = 0;  // first sequence number not yet consumed
    std::uint64_t missed = 0;   // seqs evicted before we consumed them
    std::deque<sim::Cycle> warnCycles;      // recent kWarn timestamps
    std::deque<sim::Cycle> linkWarnCycles;  // recent kLinkDegraded stamps
  };
  struct CodeWindow {
    sim::Cycle windowStart = 0;
    std::uint32_t inWindow = 0;
  };

  // Sized from the kernel enum so a new RAS code can never silently
  // under-size the tally arrays here.
  static constexpr std::size_t kNumCodes = kernel::kNumRasCodes;
  static constexpr std::size_t kNumSeverities = 4;

  bool admit(const kernel::RasEvent& e);
  void noteWarn(Source& src, const kernel::RasEvent& e);
  void noteLinkWarn(Source& src, const kernel::RasEvent& e);

  RasAggregatorConfig cfg_;
  std::vector<Source> sources_;
  std::deque<SvcRasEvent> stream_;
  std::array<CodeWindow, kNumCodes> windows_{};
  std::array<std::uint64_t, kNumSeverities> bySeverity_{};
  std::array<std::uint64_t, kNumCodes> byCode_{};
  std::uint64_t accepted_ = 0;
  std::uint64_t throttled_ = 0;
  std::uint64_t streamDropped_ = 0;
  FatalHandler onFatal_;
  WarnStormHandler onWarnStorm_;
  IoDeadHandler onIoDead_;
  LinkSickHandler onLinkSick_;
};

}  // namespace bg::svc
