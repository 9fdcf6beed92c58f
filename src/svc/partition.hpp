// Partition manager: the service node's view of the machine's compute
// nodes — which kernel each one runs, where each sits in the lifecycle
// (reset → booting → ready → running → draining → down), and how node
// blocks are carved out for jobs. Blue Gene partitions are contiguous
// blocks wired off from their neighbors; we prefer contiguity and fall
// back to scattered allocation on a fragmented or heterogeneous
// machine.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "runtime/app.hpp"
#include "sim/types.hpp"
#include "svc/job.hpp"

namespace bg::svc {

enum class NodeLifecycle : std::uint8_t {
  kReset,     // powered but not handed a kernel yet
  kBooting,   // kernel boot sequence in flight
  kReady,     // booted, no job
  kRunning,   // owned by a job
  kDraining,  // job being torn down after a fault elsewhere in its block
  kDown,      // lost to a fatal RAS event; awaiting repair + reboot
  kRetired,   // failure budget exhausted; out of service for good
};

class PartitionManager {
 public:
  /// One entry per compute node: the kernel personality it boots.
  explicit PartitionManager(std::vector<rt::KernelKind> kinds);

  int size() const { return static_cast<int>(nodes_.size()); }
  NodeLifecycle state(int n) const { return nodes_[idx(n)].state; }
  rt::KernelKind kernelOf(int n) const { return nodes_[idx(n)].kernel; }
  JobId jobOn(int n) const { return nodes_[idx(n)].job; }
  std::uint64_t failuresOf(int n) const { return nodes_[idx(n)].failures; }

  // Lifecycle transitions. `now` feeds per-node busy accounting.
  void markBooting(int n);
  void markReady(int n);
  void markRunning(int n, JobId job, sim::Cycle now);
  void release(int n, sim::Cycle now);     // running/draining -> ready
  void beginDrain(int n, sim::Cycle now);  // running -> draining
  void markDown(int n, sim::Cycle now);    // any -> down (+failure count)
  void markReset(int n);                   // down -> reset (repair done)
  void markRetired(int n);                 // down -> retired (budget blown)

  int readyCount(rt::KernelKind k) const;

  /// Allocate `count` ready nodes running kernel `k`: smallest
  /// contiguous run of eligible nodes that fits, else scattered
  /// lowest-id fallback. Empty result = not satisfiable right now.
  /// Nodes stay kReady until markRunning().
  std::vector<int> allocate(int count, rt::KernelKind k) const;

  /// Healthy-preferred allocation: try first with every node in
  /// `avoid` (e.g. the link-sick set) ineligible; when that cannot be
  /// satisfied, fall back to the unrestricted allocator — a sick node
  /// is a last resort, not a hard loss of capacity. With an empty
  /// avoid set this is bit-identical to plain allocate().
  std::vector<int> allocate(int count, rt::KernelKind k,
                            const std::set<int>& avoid) const;

  /// Flat per-node state for the service-node checkpoint: everything
  /// needed to rebuild this manager after a control-plane crash. The
  /// kernel kind is carried for validation only — a restore into a
  /// manager whose node runs a different personality is rejected.
  struct NodeSnapshot {
    rt::KernelKind kernel = rt::KernelKind::kCnk;
    NodeLifecycle state = NodeLifecycle::kReset;
    JobId job = 0;
    sim::Cycle busySince = 0;
    std::uint64_t busyCycles = 0;
    std::uint64_t failures = 0;
  };
  NodeSnapshot snapshot(int n) const;
  bool restore(int n, const NodeSnapshot& s);

  /// Cycles node n has spent in kRunning (closed intervals only; call
  /// settle() to fold in an open interval before reading).
  std::uint64_t busyCycles(int n) const { return nodes_[idx(n)].busyCycles; }
  std::uint64_t totalBusyCycles() const;
  /// Close out running intervals at `now` (without changing state) so
  /// utilization can be read mid-run.
  void settle(sim::Cycle now);

 private:
  struct NodeInfo {
    rt::KernelKind kernel = rt::KernelKind::kCnk;
    NodeLifecycle state = NodeLifecycle::kReset;
    JobId job = 0;  // 0 = none
    sim::Cycle busySince = 0;
    std::uint64_t busyCycles = 0;
    std::uint64_t failures = 0;
  };

  static std::size_t idx(int n) { return static_cast<std::size_t>(n); }
  void closeBusy(int n, sim::Cycle now);
  std::vector<int> allocateImpl(int count, rt::KernelKind k,
                                const std::set<int>* avoid) const;

  std::vector<NodeInfo> nodes_;
};

}  // namespace bg::svc
