#include "hw/node.hpp"

#include "hw/mem_fault.hpp"
#include "sim/hash.hpp"

namespace bg::hw {

Node::Node(sim::Engine& engine, int id, const NodeConfig& cfg)
    : engine_(engine), id_(id), cfg_(cfg), mem_(cfg.memBytes), l3_(cfg.l3) {
  cores_.reserve(static_cast<std::size_t>(cfg.cores));
  for (int i = 0; i < cfg.cores; ++i) {
    cores_.push_back(std::make_unique<Core>(i, *this));
  }
}

void Node::prepareForReset() {
  for (auto& c : cores_) c->flushCaches();
  l3_.flushAll();
  ddr_.enterSelfRefresh();
  mem_.enterSelfRefresh();
}

void Node::restartFromSelfRefresh() {
  ddr_.exitSelfRefresh();
  mem_.exitSelfRefresh();
  for (auto& c : cores_) {
    c->flushCaches();
    c->mmu().invalidate();
    c->unhang();  // a reboot-in-place clears a hung core
  }
  mcQueue_.clear();  // latched syndromes do not survive a reset
}

void Node::attachMemFaults(MemFaultModel* m) {
  ddr_.attachFaults(m, id_);
  for (auto& c : cores_) c->l1().attachFaults(m, id_);
  if (m == nullptr) return;
  const MemFaultRates& r = m->rates();
  ddr_.armFaults(r.eccEnabled());
  for (auto& c : cores_) c->l1().armParityFaults(r.parityEnabled());
}

void Node::injectUncorrectable(PAddr addr, int coreId) {
  pushMc(McSyndrome{McSyndrome::Kind::kUncorrectable, addr, coreId});
  core(coreId).raise(Irq::kMachineCheck);
}

void Node::injectCorrectable(PAddr addr, int coreId) {
  pushMc(McSyndrome{McSyndrome::Kind::kCorrectable, addr, coreId});
  core(coreId).raise(Irq::kMachineCheck);
}

std::uint64_t Node::progressCounter() const {
  std::uint64_t p = 0;
  for (const auto& c : cores_) p += c->cyclesBusy();
  return p;
}

std::uint64_t Node::scanHash() const {
  sim::Fnv1a h;
  h.mix(static_cast<std::uint64_t>(id_));
  for (const auto& c : cores_) h.mix(c->scanHash());
  h.mix(ddr_.inSelfRefresh() ? 1 : 0);
  return h.digest();
}

}  // namespace bg::hw
