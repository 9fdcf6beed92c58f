// KernelBase: machinery shared by CNK and the FWK baseline — boot
// phase sequencing, process/thread tables, signal delivery, user-memory
// copies, and the syscalls whose semantics are kernel-agnostic.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hw/kernel_if.hpp"
#include "hw/node.hpp"
#include "kernel/futex.hpp"
#include "kernel/job.hpp"
#include "kernel/process.hpp"
#include "kernel/syscalls.hpp"
#include "sim/types.hpp"

namespace bg::kernel {

struct BootPhase {
  std::string name;
  sim::Cycle cycles;
};

/// RAS (Reliability/Availability/Serviceability) event, as reported to
/// the control system on a real machine. The L1-parity recovery story
/// (paper §V-B) and fatal-fault diagnoses flow through this log.
struct RasEvent {
  enum class Code : std::uint8_t {
    kMachineCheck,   // L1 parity or similar hardware error
    kSegv,           // wild access / guard-page trap
    kThreadKilled,   // fatal signal took a thread down
    kJobLoaded,
    kJobExited,
    kNodeFailure,    // the whole node is lost (injected or diagnosed)
    kIoTimeout,      // a shipped I/O syscall gave up (EIO to the app)
    kIoNodeDead,     // timeout storm: this node's I/O node is gone
    kEccCorrectable,    // single-bit DDR flip, scrubbed transparently
    kEccUncorrectable,  // multi-bit DDR flip: clean panic + coredump
    kCoreHang,          // heartbeat monitor: core stopped retiring
    kCoredump,          // lightweight coredump landed on the I/O node
    // Front-door admission plane (src/frontdoor). Appended at the end:
    // RAS codes persist as raw u8 values in checkpoints and RAS logs,
    // so existing enumerator values must never shift.
    kClientRejected,    // submit bounced with SERVER_BUSY backpressure
    kFrontDoorRestart,  // in-flight request table rebuilt from persist
    // Multi-tenant control plane (svc::Accounting).
    kQuotaRejected,     // submit bounced on a per-account limit
    // Application checkpoint/restart (cnk checkpoint engine).
    kCkptBegin,         // quiesce reached, image cut started
    kCkptCommit,        // two-phase commit renamed tmp -> final image
    kCkptRestore,       // job state rebuilt from a committed image
    kCkptFailed,        // cut/ship/restore failed; previous image or
                        // scratch restart remains the truth
    // Torus hard-fault plane (hw::TorusNet link health).
    kLinkDead,          // directed torus link fail-stopped; routed around
    kLinkDegraded,      // CRC-retry storm on a directed torus link
    // RAS-driven proactive checkpoint-migrate (svc link predictor).
    kCkptMigrateBegin,     // migration window opened on a sick node
    kCkptMigrateDone,      // victim checkpointed + requeued to resume
    kCkptMigrateFallback,  // window failed; job stays in degraded mode
  };
  /// How the control system should react (src/svc aggregates on this):
  /// kInfo is bookkeeping, kWarn is recoverable (L1 parity scrubbed),
  /// kError ends a process, kFatal takes the node out of service.
  enum class Severity : std::uint8_t { kInfo, kWarn, kError, kFatal };
  sim::Cycle cycle = 0;
  Code code = Code::kMachineCheck;
  Severity severity = Severity::kError;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::uint64_t detail = 0;  // faulting address / exit status / ...
  /// Monotonic per-kernel sequence number; lets a poller resume after
  /// the bounded log has dropped old entries under it.
  std::uint64_t seq = 0;
};

/// The reaction a code implies when the reporter does not say.
constexpr RasEvent::Severity defaultRasSeverity(RasEvent::Code c) {
  switch (c) {
    case RasEvent::Code::kJobLoaded:
    case RasEvent::Code::kJobExited:
    case RasEvent::Code::kCoredump:
    case RasEvent::Code::kFrontDoorRestart:
    case RasEvent::Code::kCkptBegin:
    case RasEvent::Code::kCkptCommit:
    case RasEvent::Code::kCkptRestore:
      return RasEvent::Severity::kInfo;
    case RasEvent::Code::kCkptMigrateBegin:
    case RasEvent::Code::kCkptMigrateDone:
      return RasEvent::Severity::kInfo;
    case RasEvent::Code::kIoTimeout:
    case RasEvent::Code::kEccCorrectable:
    case RasEvent::Code::kClientRejected:
    case RasEvent::Code::kQuotaRejected:
    case RasEvent::Code::kCkptFailed:
    case RasEvent::Code::kLinkDegraded:
    case RasEvent::Code::kCkptMigrateFallback:
      return RasEvent::Severity::kWarn;
    case RasEvent::Code::kNodeFailure:
    case RasEvent::Code::kEccUncorrectable:
    case RasEvent::Code::kCoreHang:
      return RasEvent::Severity::kFatal;
    default:
      return RasEvent::Severity::kError;
  }
}

/// Stable short names for RAS codes (metrics JSON keys, log dumps).
constexpr const char* rasCodeName(RasEvent::Code c) {
  switch (c) {
    case RasEvent::Code::kMachineCheck: return "machine_check";
    case RasEvent::Code::kSegv: return "segv";
    case RasEvent::Code::kThreadKilled: return "thread_killed";
    case RasEvent::Code::kJobLoaded: return "job_loaded";
    case RasEvent::Code::kJobExited: return "job_exited";
    case RasEvent::Code::kNodeFailure: return "node_failure";
    case RasEvent::Code::kIoTimeout: return "io_timeout";
    case RasEvent::Code::kIoNodeDead: return "io_node_dead";
    case RasEvent::Code::kEccCorrectable: return "ecc_correctable";
    case RasEvent::Code::kEccUncorrectable: return "ecc_uncorrectable";
    case RasEvent::Code::kCoreHang: return "core_hang";
    case RasEvent::Code::kCoredump: return "coredump";
    case RasEvent::Code::kClientRejected: return "client_rejected";
    case RasEvent::Code::kFrontDoorRestart: return "frontdoor_restart";
    case RasEvent::Code::kQuotaRejected: return "quota_rejected";
    case RasEvent::Code::kCkptBegin: return "ckpt_begin";
    case RasEvent::Code::kCkptCommit: return "ckpt_commit";
    case RasEvent::Code::kCkptRestore: return "ckpt_restore";
    case RasEvent::Code::kCkptFailed: return "ckpt_failed";
    case RasEvent::Code::kLinkDead: return "link_dead";
    case RasEvent::Code::kLinkDegraded: return "link_degraded";
    case RasEvent::Code::kCkptMigrateBegin: return "ckpt_migrate_begin";
    case RasEvent::Code::kCkptMigrateDone: return "ckpt_migrate_done";
    case RasEvent::Code::kCkptMigrateFallback:
      return "ckpt_migrate_fallback";
  }
  return "?";
}

/// Number of RasEvent::Code values (array sizing in src/svc).
inline constexpr std::size_t kNumRasCodes = 24;

class KernelBase : public hw::KernelIf {
 public:
  explicit KernelBase(hw::Node& node);

  hw::Node& node() { return node_; }
  sim::Engine& engine() { return node_.engine(); }

  /// Run the boot phase sequence; onBooted fires when complete.
  void boot(std::function<void()> onBooted = nullptr);
  bool booted() const { return booted_; }
  sim::Cycle bootCycles() const { return bootCycles_; }
  const std::vector<std::string>& bootLog() const { return bootLog_; }

  /// The phase list is the kernel's "personality": CNK's is short and
  /// flat, the FWK's is long and spawns daemons (bench_boot).
  virtual std::vector<BootPhase> bootPhases() const = 0;

  /// Load a job onto this node: create processes/threads, build memory
  /// maps, and start the main threads. Returns false on failure.
  virtual bool loadJob(const JobSpec& spec) = 0;

  /// Kernel name for reports.
  virtual const char* kernelName() const = 0;

  /// Messaging-relevant capabilities (paper §V-C): CNK lets user space
  /// drive the DMA directly and guarantees physically-contiguous
  /// regions; a stock Linux does neither cheaply.
  virtual bool supportsUserSpaceDma() const { return false; }
  virtual bool hasContiguousPhysRegions() const { return false; }

  // --- process/thread tables ---
  Process* processByPid(std::uint32_t pid);
  Thread* threadByTid(std::uint32_t tid);
  std::vector<std::unique_ptr<Process>>& processes() { return processes_; }
  /// True when every loaded process has exited (job completion).
  bool jobDone() const;

  // --- user memory ---
  /// Resolve one user virtual address to physical, possibly faulting
  /// pages in (FWK). Contiguity is guaranteed only within 4KB.
  virtual std::optional<hw::PAddr> resolveUser(Process& p, hw::VAddr va) = 0;
  bool copyFromUser(Process& p, hw::VAddr va, std::span<std::byte> out);
  bool copyToUser(Process& p, hw::VAddr va, std::span<const std::byte> in);
  std::optional<std::string> readUserString(Process& p, hw::VAddr va,
                                            std::size_t maxLen = 4096);

  // --- signals ---
  /// Deliver signo to t: push a frame resuming at `resumePc` and enter
  /// the registered handler; kills the thread if none is registered.
  /// Returns delivery cost.
  sim::Cycle deliverSignal(Thread& t, int signo, std::uint64_t resumePc);
  void killThread(Thread& t);

  /// Make a blocked thread runnable with the given syscall result and
  /// kick its core.
  void wakeThread(Thread& t, std::uint64_t result);

  // --- hw::KernelIf defaults ---
  sim::Cycle onFault(hw::Core& core, hw::ThreadCtx& t, hw::FaultKind kind,
                     hw::VAddr va) override;
  void onThreadHalt(hw::Core& core, hw::ThreadCtx& t) override;
  sim::Cycle contextSwitchCost() const override { return 150; }

  /// Experiment harness hook: provides the host-visible sample sink
  /// for thread `threadIndex` of a process (0 = main thread). Applied
  /// at thread creation so cloned FWQ workers get their own sinks.
  using SampleSinkProvider =
      std::function<std::vector<std::uint64_t>*(const Process&, int)>;
  void setSampleSinkProvider(SampleSinkProvider f) {
    sampleSink_ = std::move(f);
  }

  /// Access to the kernel's futex table (used by the user-space mutex
  /// runtime for handover unlocks). May be null.
  virtual FutexTable* futexTable() { return nullptr; }

  // statistics
  std::uint64_t threadsKilled() const { return threadsKilled_; }

  /// RAS event stream (what a service node collects; see src/svc).
  /// Bounded: oldest entries are dropped once the capacity is reached,
  /// so long fault-injection runs can't grow it without limit. Entries
  /// stay in chronological order; `seq` survives drops.
  const std::deque<RasEvent>& rasLog() const { return rasLog_; }
  std::uint64_t rasDropped() const { return rasDropped_; }
  std::uint64_t rasNextSeq() const { return rasNextSeq_; }
  void setRasLogCapacity(std::size_t cap) { rasLogCap_ = cap; trimRasLog(); }
  void logRas(RasEvent::Code code, std::uint32_t pid, std::uint32_t tid,
              std::uint64_t detail);
  void logRas(RasEvent::Code code, RasEvent::Severity severity,
              std::uint32_t pid, std::uint32_t tid, std::uint64_t detail);

 protected:
  /// Handle the kernel-agnostic syscall subset (gettid/getpid/uname/
  /// sigaction/sigreturn/gettimeofday/tgkill/nanosleep-as-spin...).
  /// Returns nullopt if the syscall is not in the common subset.
  std::optional<hw::HandlerResult> commonSyscall(hw::Core& core, Thread& t,
                                                 const hw::SyscallArgs& args);

  virtual const char* unameRelease() const = 0;

  std::uint32_t allocPid() { return nextPid_++; }
  std::uint32_t allocTid() { return nextTid_++; }

  static Thread& threadOf(hw::ThreadCtx& ctx) {
    return *static_cast<Thread*>(ctx.owner);
  }

  SampleSinkProvider sampleSink_;
  hw::Node& node_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::uint32_t nextPid_ = 1;
  std::uint32_t nextTid_ = 1;
  bool booted_ = false;
  sim::Cycle bootCycles_ = 0;
  std::vector<std::string> bootLog_;
  std::uint64_t threadsKilled_ = 0;
  std::deque<RasEvent> rasLog_;
  std::size_t rasLogCap_ = 1024;
  std::uint64_t rasDropped_ = 0;
  std::uint64_t rasNextSeq_ = 0;

 private:
  void trimRasLog();
};

}  // namespace bg::kernel
