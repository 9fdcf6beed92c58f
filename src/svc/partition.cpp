#include "svc/partition.hpp"

#include <algorithm>

namespace bg::svc {

PartitionManager::PartitionManager(std::vector<rt::KernelKind> kinds) {
  nodes_.resize(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) nodes_[i].kernel = kinds[i];
}

void PartitionManager::closeBusy(int n, sim::Cycle now) {
  NodeInfo& ni = nodes_[idx(n)];
  if (ni.state == NodeLifecycle::kRunning) {
    ni.busyCycles += now - ni.busySince;
    ni.busySince = now;
  }
}

void PartitionManager::markBooting(int n) {
  nodes_[idx(n)].state = NodeLifecycle::kBooting;
}

void PartitionManager::markReady(int n) {
  NodeInfo& ni = nodes_[idx(n)];
  ni.state = NodeLifecycle::kReady;
  ni.job = 0;
}

void PartitionManager::markRunning(int n, JobId job, sim::Cycle now) {
  NodeInfo& ni = nodes_[idx(n)];
  ni.state = NodeLifecycle::kRunning;
  ni.job = job;
  ni.busySince = now;
}

void PartitionManager::release(int n, sim::Cycle now) {
  closeBusy(n, now);
  markReady(n);
}

void PartitionManager::beginDrain(int n, sim::Cycle now) {
  closeBusy(n, now);
  nodes_[idx(n)].state = NodeLifecycle::kDraining;
}

void PartitionManager::markDown(int n, sim::Cycle now) {
  closeBusy(n, now);
  NodeInfo& ni = nodes_[idx(n)];
  ni.state = NodeLifecycle::kDown;
  ni.job = 0;
  ++ni.failures;
}

void PartitionManager::markReset(int n) {
  nodes_[idx(n)].state = NodeLifecycle::kReset;
}

void PartitionManager::markRetired(int n) {
  NodeInfo& ni = nodes_[idx(n)];
  ni.state = NodeLifecycle::kRetired;
  ni.job = 0;
}

int PartitionManager::readyCount(rt::KernelKind k) const {
  int c = 0;
  for (const NodeInfo& ni : nodes_) {
    if (ni.state == NodeLifecycle::kReady && ni.kernel == k) ++c;
  }
  return c;
}

std::vector<int> PartitionManager::allocate(int count,
                                            rt::KernelKind k) const {
  return allocateImpl(count, k, nullptr);
}

std::vector<int> PartitionManager::allocate(int count, rt::KernelKind k,
                                            const std::set<int>& avoid) const {
  if (!avoid.empty()) {
    std::vector<int> healthy = allocateImpl(count, k, &avoid);
    if (!healthy.empty()) return healthy;
  }
  return allocateImpl(count, k, nullptr);
}

std::vector<int> PartitionManager::allocateImpl(
    int count, rt::KernelKind k, const std::set<int>* avoid) const {
  if (count <= 0) return {};
  const int n = size();
  // Smallest contiguous run of eligible nodes that fits.
  int bestStart = -1;
  int bestLen = n + 1;
  int runStart = -1;
  for (int i = 0; i <= n; ++i) {
    const bool eligible = i < n &&
                          nodes_[idx(i)].state == NodeLifecycle::kReady &&
                          nodes_[idx(i)].kernel == k &&
                          (avoid == nullptr || avoid->count(i) == 0);
    if (eligible) {
      if (runStart < 0) runStart = i;
    } else if (runStart >= 0) {
      const int len = i - runStart;
      if (len >= count && len < bestLen) {
        bestStart = runStart;
        bestLen = len;
      }
      runStart = -1;
    }
  }
  std::vector<int> out;
  if (bestStart >= 0) {
    for (int i = bestStart; i < bestStart + count; ++i) out.push_back(i);
    return out;
  }
  // Fragmented machine: scattered lowest-id fallback.
  for (int i = 0; i < n && static_cast<int>(out.size()) < count; ++i) {
    if (nodes_[idx(i)].state == NodeLifecycle::kReady &&
        nodes_[idx(i)].kernel == k &&
        (avoid == nullptr || avoid->count(i) == 0)) {
      out.push_back(i);
    }
  }
  if (static_cast<int>(out.size()) < count) out.clear();
  return out;
}

PartitionManager::NodeSnapshot PartitionManager::snapshot(int n) const {
  const NodeInfo& ni = nodes_[idx(n)];
  return NodeSnapshot{ni.kernel, ni.state,     ni.job,
                      ni.busySince, ni.busyCycles, ni.failures};
}

bool PartitionManager::restore(int n, const NodeSnapshot& s) {
  NodeInfo& ni = nodes_[idx(n)];
  if (ni.kernel != s.kernel) return false;
  ni.state = s.state;
  ni.job = s.job;
  ni.busySince = s.busySince;
  ni.busyCycles = s.busyCycles;
  ni.failures = s.failures;
  return true;
}

std::uint64_t PartitionManager::totalBusyCycles() const {
  std::uint64_t sum = 0;
  for (const NodeInfo& ni : nodes_) sum += ni.busyCycles;
  return sum;
}

void PartitionManager::settle(sim::Cycle now) {
  for (int i = 0; i < size(); ++i) closeBusy(i, now);
}

}  // namespace bg::svc
