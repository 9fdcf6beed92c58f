// A Blue Gene-style System-On-a-Chip node: cores, memory hierarchy,
// and taps onto the machine-wide networks.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "hw/cache.hpp"
#include "hw/core.hpp"
#include "hw/ddr.hpp"
#include "hw/kernel_if.hpp"
#include "hw/phys_mem.hpp"
#include "sim/engine.hpp"

namespace bg::hw {

class CollectiveNet;
class TorusNet;
class BarrierNet;

struct NodeConfig {
  int cores = 4;                          // BG/P: quad PPC450
  std::uint64_t memBytes = 512ULL << 20;  // simulated DDR size
  SharedCacheConfig l3;
  DdrConfig ddr;
  std::uint64_t bootSramBytes = 64ULL << 10;
};

/// A latched machine-check syndrome. Hardware that detects a memory
/// or CPU fault pushes one of these into the node's syndrome queue
/// and raises Irq::kMachineCheck; the kernel's handler pops the queue
/// to learn what actually happened (ECC scrub vs parity vs panic).
/// Every raiser latches a syndrome first; kernels still handle an
/// empty queue on a machine-check IRQ defensively.
struct McSyndrome {
  enum class Kind : std::uint8_t {
    kCorrectable,    // single-bit ECC, scrubbed transparently
    kUncorrectable,  // multi-bit ECC, node must panic
    kParity,         // L1 parity flip, recovered by invalidate+refill
    kSpurious,       // machine check with no real fault behind it
  };
  Kind kind = Kind::kSpurious;
  PAddr paddr = 0;  // faulting physical address (0 if n/a)
  int core = 0;     // core that observed the fault
};

class Node {
 public:
  Node(sim::Engine& engine, int id, const NodeConfig& cfg);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  sim::Engine& engine() { return engine_; }
  int id() const { return id_; }
  const NodeConfig& config() const { return cfg_; }

  PhysMem& mem() { return mem_; }
  Ddr& ddr() { return ddr_; }
  SharedCache& l3() { return l3_; }
  Core& core(int i) { return *cores_[static_cast<std::size_t>(i)]; }
  int numCores() const { return static_cast<int>(cores_.size()); }

  KernelIf* kernel() { return kernel_; }
  void attachKernel(KernelIf* k) { kernel_ = k; }
  RuntimeIf* runtime() { return runtime_; }
  void attachRuntime(RuntimeIf* r) { runtime_ = r; }

  CollectiveNet* collective() { return collective_; }
  void attachCollective(CollectiveNet* n) { collective_ = n; }
  TorusNet* torus() { return torus_; }
  void attachTorus(TorusNet* n) { torus_ = n; }
  BarrierNet* barrier() { return barrier_; }
  void attachBarrier(BarrierNet* n) { barrier_ = n; }

  std::array<int, 3> coords{0, 0, 0};

  /// Send an inter-processor interrupt to a core on this node.
  void sendIpi(int coreId) { core(coreId).raise(Irq::kIpi); }

  /// Reproducible-reset support (paper §III): flush all caches to DDR,
  /// put DDR into self-refresh. The kernel performs the core rendezvous
  /// before calling this.
  void prepareForReset();
  /// Take DDR out of self-refresh and clear volatile chip state.
  void restartFromSelfRefresh();

  /// Architectural state digest: all cores + L3/DDR flags. Used as the
  /// per-cycle "logic scan" witness.
  std::uint64_t scanHash() const;

  // --- compute-node fault plane -------------------------------------

  /// Attach the machine-wide fault model and cache the per-component
  /// armed flags from its rates, so the hot paths only ever test
  /// cached bools.
  void attachMemFaults(MemFaultModel* m);
  bool sliceFaultsArmed() const { return sliceFaultsArmed_; }

  /// Syndrome queue (drained by the kernel's machine-check handler).
  void pushMc(const McSyndrome& s) { mcQueue_.push_back(s); }
  bool takeMc(McSyndrome* out) {
    if (mcQueue_.empty()) return false;
    *out = mcQueue_.front();
    mcQueue_.erase(mcQueue_.begin());
    return true;
  }

  /// Judge slice-granular faults (hang / spurious MC) for `core`.
  /// Returns true when the core was hung and must stop executing.
  bool judgeSliceFaults(Core& c);

  /// Schedule-driven injection: latch a syndrome and raise the
  /// machine-check IRQ on `coreId` (used by tests/fault schedules and
  /// the service node's fault-injection hooks).
  void injectUncorrectable(PAddr addr, int coreId = 0);
  void injectCorrectable(PAddr addr, int coreId = 0);

  /// Forward-progress counter for the service node's heartbeat
  /// monitor: total busy cycles across cores. A hung or dead node
  /// stops advancing it.
  std::uint64_t progressCounter() const;

 private:
  sim::Engine& engine_;
  int id_;
  NodeConfig cfg_;
  PhysMem mem_;
  Ddr ddr_;
  SharedCache l3_;
  std::vector<std::unique_ptr<Core>> cores_;
  KernelIf* kernel_ = nullptr;
  RuntimeIf* runtime_ = nullptr;
  CollectiveNet* collective_ = nullptr;
  TorusNet* torus_ = nullptr;
  BarrierNet* barrier_ = nullptr;
  MemFaultModel* memFaults_ = nullptr;
  bool sliceFaultsArmed_ = false;
  std::vector<McSyndrome> mcQueue_;
};

}  // namespace bg::hw
