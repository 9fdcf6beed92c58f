// Cluster: the library's top-level entry point.
//
// Assembles a simulated Blue Gene-style machine (compute nodes, I/O
// nodes, tree/torus/barrier networks), attaches a kernel per compute
// node (CNK or the Linux-like FWK baseline), stands up CIOD on the
// I/O nodes, wires the user-space runtime and messaging stack, and
// provides job launch + run-to-completion. See examples/quickstart.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cnk/cnk_kernel.hpp"
#include "fwk/fwk_kernel.hpp"
#include "hw/machine.hpp"
#include "io/ciod.hpp"
#include "io/nfs_sim.hpp"
#include "io/ramfs.hpp"
#include "msg/armci.hpp"
#include "msg/dcmf.hpp"
#include "msg/mpi_lite.hpp"
#include "msg/world.hpp"
#include "runtime/dispatcher.hpp"

namespace bg::rt {

enum class KernelKind { kCnk, kFwk };

struct ClusterConfig {
  int computeNodes = 1;
  int ioNodes = 1;
  int computeNodesPerIoNode = 64;  // pset size
  /// Cold spare I/O nodes for CIOD failover (failoverIoNode()).
  int spareIoNodes = 0;
  KernelKind kernel = KernelKind::kCnk;
  /// Per-node kernel override for heterogeneous machines (MultiK-style
  /// specialized kernels side by side). Node n runs nodeKernels[n];
  /// nodes past the vector's end fall back to `kernel`. The service
  /// node (src/svc) matches jobs to partitions of the kernel they ask
  /// for.
  std::vector<KernelKind> nodeKernels;
  cnk::CnkKernel::Config cnk;
  fwk::FwkKernel::Config fwk;
  hw::NodeConfig node;
  hw::TorusConfig torus;
  hw::CollectiveConfig collective;
  hw::BarrierConfig barrier;
  msg::DcmfConfig dcmf;
  msg::MpiConfig mpi;
  msg::ArmciConfig armci;
  /// Seeded link-fault injection; all-zero rates (the default) draw no
  /// random numbers and leave every schedule bit-identical.
  hw::LinkFaultRates collectiveFaults;
  hw::LinkFaultRates torusFaults;
  /// Seeded compute-node memory/core fault injection (ECC, parity,
  /// hangs); same all-zero-default contract as the link rates.
  hw::MemFaultRates memFaults;
  std::uint64_t seed = 42;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  hw::Machine& machine() { return *machine_; }
  sim::Engine& engine() { return machine_->engine(); }
  const ClusterConfig& config() const { return cfg_; }

  kernel::KernelBase& kernelOn(int n) { return *kernels_[n]; }
  KernelKind kernelKindOn(int n) const {
    return n < static_cast<int>(cfg_.nodeKernels.size())
               ? cfg_.nodeKernels[static_cast<std::size_t>(n)]
               : cfg_.kernel;
  }
  cnk::CnkKernel* cnkOn(int n) {
    return dynamic_cast<cnk::CnkKernel*>(kernels_[n].get());
  }
  fwk::FwkKernel* fwkOn(int n) {
    return dynamic_cast<fwk::FwkKernel*>(kernels_[n].get());
  }
  Dispatcher& dispatcherOn(int n) { return *dispatchers_[n]; }

  io::Ciod& ciod(int i) { return *ciods_[i]; }
  io::RamFs& ioRootFs(int i) { return *ioRoot_[i]; }

  /// Fail over pset `ioIdx`'s CIOD to the next cold spare: the old
  /// daemon fail-stops, a fresh CIOD on the spare node (bound to the
  /// same filesystem — it is the "shared" storage) takes over, and
  /// every CNK in the pset re-homes, restoring its ioproxies from
  /// shadow state and completing in-flight syscalls. Returns the new
  /// I/O node net id, or -1 when no spare is left.
  int failoverIoNode(int ioIdx);
  /// Repair-in-place: restart CIOD on the same (crashed) I/O node and
  /// re-home the pset to it. The no-spare recovery path.
  void rebootIoNode(int ioIdx);

  /// Sum of every CNK kernel's function-shipping reliability counters
  /// (benches report these next to CIOD's own).
  cnk::FshipStats fshipTotals();
  /// Sum over all CIODs that served this run, including crashed and
  /// replaced instances (their counters are folded in at replacement).
  io::CiodStats ciodTotals() const;

  msg::MsgWorld& world() { return world_; }
  msg::Dcmf& dcmf() { return *dcmf_; }
  msg::Mpi& mpi() { return *mpi_; }
  msg::Armci& armci() { return *armci_; }

  /// Boot every compute-node kernel; returns false if booting stalls.
  bool bootAll(std::uint64_t maxEvents = 10'000'000);

  /// Launch the same job on every compute node (ranks assigned
  /// node-major), register ranks with the messaging world, stage
  /// dynamic libraries onto the I/O nodes' filesystems.
  bool loadJob(const kernel::JobSpec& job);

  /// Launch a job on a single node without touching the messaging
  /// world — the service-node scheduler (src/svc) places independent
  /// jobs on partitions this way. `job.firstRank` should already be
  /// set by the caller. Dynamic libraries are staged on the node's
  /// I/O node as in loadJob().
  bool loadJobOnNode(int n, const kernel::JobSpec& job);

  /// Run the machine until every node's job completes. Returns false
  /// on event-budget exhaustion or deadlock (empty queue).
  bool run(std::uint64_t maxEvents = 400'000'000);

  bool jobDone() const;

  /// Attach a host-visible sample sink for (rank, threadIndex);
  /// call before loadJob (thread 0) / before the app clones workers.
  void attachSamples(int rank, int threadIndex,
                     std::vector<std::uint64_t>* sink);

  std::string consoleOf(int n) const;
  kernel::Process* processOfRank(int rank) { return world_.processOf(rank); }
  int worldSize() const { return world_.size(); }

 private:
  void rehomePset(int ioIdx, int netId);

  ClusterConfig cfg_;
  std::unique_ptr<hw::Machine> machine_;
  std::vector<std::unique_ptr<kernel::KernelBase>> kernels_;
  std::vector<std::unique_ptr<Dispatcher>> dispatchers_;
  std::vector<std::unique_ptr<io::Vfs>> ioVfs_;
  std::vector<std::shared_ptr<io::RamFs>> ioRoot_;
  std::vector<std::unique_ptr<io::Ciod>> ciods_;
  int nextSpareIo_ = 0;
  io::CiodStats retiredCiodStats_;  // counters of replaced daemons
  msg::MsgWorld world_;
  std::unique_ptr<msg::Dcmf> dcmf_;
  std::unique_ptr<msg::Mpi> mpi_;
  std::unique_ptr<msg::Armci> armci_;
  std::map<std::pair<int, int>, std::vector<std::uint64_t>*> sinks_;
};

}  // namespace bg::rt
