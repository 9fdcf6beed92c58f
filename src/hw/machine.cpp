#include "hw/machine.hpp"

#include <cmath>

#include "sim/hash.hpp"

namespace bg::hw {

MachineConfig Machine::normalize(MachineConfig cfg) {
  if (cfg.torus.dims[0] * cfg.torus.dims[1] * cfg.torus.dims[2] <
      cfg.computeNodes) {
    // Derive a roughly-cubic torus that holds all compute nodes.
    int x = 1, y = 1, z = 1;
    while (x * y * z < cfg.computeNodes) {
      if (x <= y && x <= z) {
        ++x;
      } else if (y <= z) {
        ++y;
      } else {
        ++z;
      }
    }
    cfg.torus.dims = {x, y, z};
  }
  if (cfg.ioNodes < 1) cfg.ioNodes = 1;
  if (cfg.spareIoNodes < 0) cfg.spareIoNodes = 0;
  return cfg;
}

Machine::Machine(const MachineConfig& cfg)
    : cfg_(normalize(cfg)),
      collective_(engine_),
      torus_(engine_, cfg_.torus),
      barrier_(engine_),
      collFaults_(cfg_.seed, "collective-faults"),
      torusFaults_(cfg_.seed, "torus-faults"),
      memFaults_(cfg_.seed, "mem-faults") {
  // Per-node fault streams (seed ^ nodeId); they must exist before the
  // first fault judgement.
  memFaults_.attachNodes(cfg_.computeNodes);
  collFaults_.setDefaultRates(cfg_.collectiveFaults);
  torusFaults_.setDefaultRates(cfg_.torusFaults);
  collective_.setFaultModel(&collFaults_);
  torus_.setFaultModel(&torusFaults_);
  memFaults_.setRates(cfg_.memFaults);
  compute_.reserve(static_cast<std::size_t>(cfg_.computeNodes));
  for (int i = 0; i < cfg_.computeNodes; ++i) {
    auto n = std::make_unique<Node>(engine_, i, cfg_.node);
    n->attachCollective(&collective_);
    n->attachTorus(&torus_);
    n->attachBarrier(&barrier_);
    n->attachMemFaults(&memFaults_);
    torus_.attachNode(i, n.get());
    compute_.push_back(std::move(n));
  }
  const int totalIo = cfg_.ioNodes + cfg_.spareIoNodes;
  io_.reserve(static_cast<std::size_t>(totalIo));
  for (int i = 0; i < totalIo; ++i) {
    auto n = std::make_unique<Node>(engine_, kIoNodeIdBase + i, cfg_.node);
    n->attachCollective(&collective_);
    n->attachBarrier(&barrier_);
    io_.push_back(std::move(n));
  }
}

void Machine::resetNode(int i) {
  Node& n = node(i);
  n.prepareForReset();
  n.restartFromSelfRefresh();
}

std::uint64_t Machine::scanHash() const {
  sim::Fnv1a h;
  for (const auto& n : compute_) h.mix(n->scanHash());
  for (const auto& n : io_) h.mix(n->scanHash());
  h.mix(barrier_.stateHash());
  return h.digest();
}

}  // namespace bg::hw
