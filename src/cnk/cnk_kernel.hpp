// The Compute Node Kernel (paper's primary subject).
//
// Lightweight, noise-free by construction:
//  - static TLB mapping built at job load (partitioner); no demand
//    paging, no copy-on-write, no page cache (§IV-C, §VI-B);
//  - non-preemptive scheduler, fixed core affinity, small fixed thread
//    slots per core; the decrementer is never armed (§VI-C);
//  - enough of the Linux syscall ABI (clone/futex/set_tid_address/
//    sigaction/uname/brk/mmap) for unmodified glibc+NPTL (§IV-B);
//  - all other I/O function-shipped to CIOD on the I/O node (§IV-A);
//  - guard pages via DAC registers with IPI-based repositioning when
//    another thread moves the heap boundary (§IV-C, Fig 4);
//  - named persistent memory preserved across jobs at stable virtual
//    addresses (§IV-D);
//  - reproducible-mode reset: flush caches, DDR self-refresh, restart
//    identically — the chip-bringup workhorse (§III).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cnk/fship_client.hpp"
#include "cnk/linker.hpp"
#include "hw/clockstop.hpp"
#include "cnk/mmap_tracker.hpp"
#include "cnk/partitioner.hpp"
#include "cnk/persist.hpp"
#include "cnk/scheduler.hpp"
#include "kernel/kernel.hpp"

namespace bg::cnk {

class CnkKernel final : public kernel::KernelBase {
 public:
  struct Config {
    int maxThreadsPerCore = 3;
    std::uint64_t kernelReservedBytes = 16ULL << 20;
    int ioNodeNetId = -1;  // set by the cluster harness
    /// Function-shipping reliability knobs (watchdog, retransmit,
    /// failover grace); defaults are invisible on a fault-free run.
    FshipClient::Config fship;
    /// §VIII extended thread affinity: allow a core to execute a
    /// pthread from one designated "remote" process.
    bool remoteThreadExtension = false;
  };

  explicit CnkKernel(hw::Node& node) : CnkKernel(node, Config()) {}
  CnkKernel(hw::Node& node, Config cfg);
  ~CnkKernel() override;

  // ---- KernelBase ----
  std::vector<kernel::BootPhase> bootPhases() const override;
  bool loadJob(const kernel::JobSpec& spec) override;
  bool supportsUserSpaceDma() const override { return true; }
  bool hasContiguousPhysRegions() const override { return true; }
  std::optional<hw::PAddr> resolveUser(kernel::Process& p,
                                       hw::VAddr va) override;

  // ---- hw::KernelIf ----
  hw::HandlerResult syscall(hw::Core& core, hw::ThreadCtx& ctx,
                            const hw::SyscallArgs& args) override;
  hw::HandlerResult onTlbMiss(hw::Core& core, hw::ThreadCtx& ctx,
                              hw::VAddr va, hw::Access access) override;
  hw::HandlerResult onInterrupt(hw::Core& core, hw::Irq irq) override;
  hw::ThreadCtx* pickNext(hw::Core& core) override;
  void onThreadHalt(hw::Core& core, hw::ThreadCtx& ctx) override;
  sim::Cycle contextSwitchCost() const override { return 110; }

  // ---- job/service API ----
  void unloadJob();  // persistent regions survive

  FshipClient& fship() { return *fship_; }
  Linker& linker() { return *linker_; }
  MmapTracker& mmapOf(kernel::Process& p) { return mmap_[p.pid()]; }
  const std::vector<int>& coresOf(std::uint32_t pid) {
    return procCores_[pid];
  }
  std::shared_ptr<kernel::ElfImage> libImage(const std::string& name) const;

  /// Compute-node fault plane counters (machine-check handler).
  std::uint64_t eccScrubbed() const { return eccScrubbed_; }
  std::uint64_t coredumpsShipped() const { return coredumpsShipped_; }
  bool panicked() const { return panicked_; }

  /// Reproducible-mode reset (§III): flush caches to DDR, DDR into
  /// self-refresh, toggle reset, restart without the service-node
  /// handshake. Any loaded job is torn down first.
  void requestReproducibleReset(std::function<void()> onRestarted);
  std::uint64_t reproducibleResets() const { return reproResets_; }

  /// §VIII: designate a remote process whose extra pthreads may run on
  /// this core when its own process leaves it idle.
  void designateRemoteProcess(int core, std::uint32_t pid);

  /// Entry used by the user-runtime loader for dlopen.
  hw::HandlerResult dlopenForThread(kernel::Thread& t,
                                    const std::string& name);

  std::uint64_t tlbRefills() const { return tlbRefills_; }
  std::uint64_t ipisSent() const { return ipisSent_; }

  // ---- application checkpoint/restart ----
  /// Service-initiated transparent checkpoint of the loaded job. The
  /// image is cut at an event boundary (every thread context is
  /// architecturally consistent there), so no cooperation from the
  /// application is needed; the cut is deferred while shipped I/O is
  /// still in flight. `done(true)` fires once the two-phase commit
  /// (write tmp, rename) lands on the I/O node; any failure leaves the
  /// previous committed image valid and fires `done(false)`.
  void requestCheckpoint(std::function<void(bool)> done);

  /// Highest checkpoint sequence whose two-phase commit completed for
  /// the currently-loaded job (0 = none). The service node polls this
  /// to learn about application-initiated ckpt_save commits.
  std::uint32_t ckptSeqCommitted() const { return ckpt_.committedSeq; }
  std::uint64_t lastCkptBytes() const { return ckpt_.lastBytes; }
  std::uint64_t ckptCommits() const { return ckpt_.commits; }
  std::uint64_t ckptFailures() const { return ckpt_.failures; }
  std::uint64_t ckptRestores() const { return ckpt_.restores; }

 protected:
  const char* unameRelease() const override {
    return kernel::kCnkUnameRelease;
  }

 private:
  static constexpr sim::Cycle kSyscallBaseCost = 90;  // trap + dispatch

  hw::HandlerResult sysBrk(kernel::Thread& t, std::uint64_t newBrk);
  hw::HandlerResult sysMmap(kernel::Thread& t, const hw::SyscallArgs& a);
  hw::HandlerResult sysMunmap(kernel::Thread& t, const hw::SyscallArgs& a);
  hw::HandlerResult sysMprotect(kernel::Thread& t, const hw::SyscallArgs& a);
  hw::HandlerResult sysClone(hw::Core& core, kernel::Thread& t,
                             const hw::SyscallArgs& a);
  hw::HandlerResult sysPersistOpen(kernel::Thread& t,
                                   const hw::SyscallArgs& a);

  // Checkpoint engine (defined in cnk/ckpt_image.cpp).
  hw::HandlerResult sysCkptSave(kernel::Thread& t);
  hw::HandlerResult sysCkptRestore(kernel::Thread& t);
  bool allProcsAtCkptGate() const;
  void maybeCutCkpt();
  void cutCkptNow();
  void failCheckpoint(std::int64_t err);
  void finishCkptCommit(std::uint32_t seq, std::uint64_t bytes);
  std::vector<std::byte> buildCkptImage(std::uint32_t seq);
  bool applyCkptImage(const std::vector<std::byte>& bytes);
  void shipCkptImage(std::uint32_t seq, std::vector<std::byte> bytes);
  void restoreFromImageFile(std::function<void(bool)> done);
  void finishCkptRestore(bool ok, std::function<void(bool)> done);

  /// Uncorrectable machine check: log fatal RAS, ship a lightweight
  /// coredump, fail-stop every user thread. Returns handler cost.
  sim::Cycle panicOnUncorrectable(const hw::McSyndrome& syn);
  void shipCoredump(std::vector<std::byte> bytes);

  void installRegionOnCores(const kernel::MemRegionDesc& r,
                            std::uint32_t pid,
                            const std::vector<int>& cores);
  void applyGuardDac(hw::Core& core, const kernel::Thread& t);

  Config cfg_;
  CnkScheduler sched_;
  PersistRegistry persist_;
  std::unique_ptr<FshipClient> fship_;
  std::unique_ptr<Linker> linker_;
  std::unique_ptr<hw::ClockStop> clockStop_;
  std::map<std::uint32_t, MmapTracker> mmap_;
  std::map<std::uint32_t, std::vector<int>> procCores_;
  std::map<std::string, std::shared_ptr<kernel::ElfImage>> libImages_;
  std::map<int, std::uint32_t> remoteProcOfCore_;
  /// Pending guard-reposition request per core, applied by the IPI
  /// handler (paper Fig 4 flow).
  std::vector<std::optional<std::pair<hw::VAddr, hw::VAddr>>> pendingGuard_;
  std::uint64_t tlbRefills_ = 0;
  std::uint64_t ipisSent_ = 0;
  std::uint64_t reproResets_ = 0;
  std::uint64_t eccScrubbed_ = 0;
  std::uint64_t coredumpsShipped_ = 0;
  bool panicked_ = false;

  /// Checkpoint engine state. `gen` stamps every deferred-cut poll and
  /// ship-chain completion so a leg that lands after the attempt was
  /// resolved (failed, committed, or torn down by unloadJob) is inert.
  struct CkptState {
    bool inProgress = false;
    bool restorePending = false;  // restore chain owns the node
    std::uint32_t jobId = 0;      // from JobSpec::jobId (0 = anonymous)
    int firstRank = 0;            // names the per-node image file
    std::uint32_t nextSeq = 1;
    std::uint32_t committedSeq = 0;
    std::uint64_t lastBytes = 0;
    std::uint64_t commits = 0;
    std::uint64_t failures = 0;
    std::uint64_t restores = 0;
    int repolls = 0;              // bounded defer while I/O drains
    std::uint64_t gen = 0;
    /// App threads blocked in ckpt_save awaiting the barrier + commit.
    std::vector<kernel::Thread*> waiters;
    /// Service-initiated completion callback (empty for app-initiated).
    std::function<void(bool)> done;
  };
  CkptState ckpt_;

  friend class Linker;
};

}  // namespace bg::cnk
