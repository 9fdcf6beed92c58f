// FWK: the full-weight (Linux-like) kernel baseline.
//
// Structurally faithful to what the paper compares against (SUSE
// 2.6.16 on BG/P hardware): 4KB demand paging with a software TLB
// refill path, a preemptive tick scheduler, a resident daemon
// population, full mmap/mprotect semantics, and a local VFS. Noise is
// never sampled from a distribution and added to results — it emerges
// from ticks, daemon preemption, TLB refills and page faults actually
// happening in the simulation.
//
// Ablation knobs (enableTick / enableDaemons / demandPaging) exist so
// bench_fwq can decompose the noise by source.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "fwk/buddy.hpp"
#include "fwk/daemons.hpp"
#include "fwk/paging.hpp"
#include "fwk/scheduler.hpp"
#include "io/nfs_sim.hpp"
#include "io/ramfs.hpp"
#include "io/vfs.hpp"
#include "kernel/kernel.hpp"
#include "sim/rng.hpp"

namespace bg::fwk {

class FwkKernel final : public kernel::KernelBase {
 public:
  struct Config {
    bool enableTick = true;
    bool enableDaemons = true;
    bool demandPaging = true;  // false => prefault at job load
    bool strippedBoot = false;
    std::uint64_t kernelReservedBytes = 48ULL << 20;
    /// External entropy (interrupt timing, device init) that varies
    /// between real-world runs; vary it to model Linux's lack of
    /// cycle-reproducibility (paper Table II last row).
    std::uint64_t entropy = 0x5EED;
  };

  explicit FwkKernel(hw::Node& node) : FwkKernel(node, Config()) {}
  FwkKernel(hw::Node& node, Config cfg);
  ~FwkKernel() override;

  // ---- KernelBase ----
  std::vector<kernel::BootPhase> bootPhases() const override;
  bool loadJob(const kernel::JobSpec& spec) override;
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
  sim::Cycle contextSwitchCost() const override { return 1'400; }

  // ---- services ----
  /// FWK dynamic loading: instant VMA creation, pages fault in lazily
  /// from (remote) storage as they are touched — the structural
  /// opposite of CNK's eager full-image load.
  hw::HandlerResult dlopenForThread(kernel::Thread& t,
                                    const std::string& name);
  void registerLibImage(std::shared_ptr<kernel::ElfImage> img);

  std::uint64_t pageFaults() const { return pageFaults_; }
  std::uint64_t tlbRefillCount() const { return tlbRefills_; }
  std::uint64_t daemonWakeups() const { return daemonWakeups_; }
  std::uint64_t preemptions() const { return preemptions_; }
  std::uint64_t ticks() const { return ticks_; }

 protected:
  const char* unameRelease() const override { return "2.6.16.60-bgp-smp"; }

 private:
  hw::HandlerResult sysBrk(kernel::Thread& t, std::uint64_t newBrk);
  hw::HandlerResult sysMmap(kernel::Thread& t, const hw::SyscallArgs& a);
  hw::HandlerResult sysMunmap(kernel::Thread& t, const hw::SyscallArgs& a);
  hw::HandlerResult sysMprotect(kernel::Thread& t, const hw::SyscallArgs& a);
  hw::HandlerResult sysClone(kernel::Thread& t, const hw::SyscallArgs& a);
  hw::HandlerResult sysNanosleep(kernel::Thread& t, std::uint64_t us);

  /// Materialize the page containing va. Returns the fault cost, or
  /// nullopt if the address is not covered by any VMA.
  std::optional<sim::Cycle> faultInPage(kernel::Process& p, hw::VAddr va);
  void spawnDaemons();
  void startTick();
  io::VfsClient& clientOf(kernel::Process& p);

  Config cfg_;
  FwkScheduler sched_;
  std::unique_ptr<BuddyAllocator> buddy_;
  std::map<std::uint32_t, AddressSpace> spaces_;
  std::map<std::uint32_t, std::unique_ptr<io::VfsClient>> clients_;
  io::Vfs vfs_;
  std::shared_ptr<io::NfsSim> nfs_;
  std::map<std::string, std::shared_ptr<kernel::ElfImage>> libImages_;
  std::vector<vm::Program> daemonPrograms_;
  kernel::Process* daemonProc_ = nullptr;
  sim::Rng rng_;
  std::map<int, int> ticksSinceSwitch_;
  std::map<int, kernel::Thread*> lastOnCore_;
  std::uint64_t pageFaults_ = 0;
  std::uint64_t tlbRefills_ = 0;
  std::uint64_t daemonWakeups_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t mmapCursor_ = 0x8000'0000;
};

}  // namespace bg::fwk
