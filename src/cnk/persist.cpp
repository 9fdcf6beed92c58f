#include "cnk/persist.hpp"

#include "sim/hash.hpp"

namespace bg::cnk {

void PersistRegistry::configurePool(hw::PAddr base, std::uint64_t size,
                                    hw::VAddr vbase) {
  poolBase_ = base;
  poolSize_ = size;
  vCursor_ = vbase;
}

std::optional<PersistRegion> PersistRegistry::openOrCreate(
    const std::string& name, std::uint64_t size, std::uint32_t uid) {
  auto it = regions_.find(name);
  if (it != regions_.end()) {
    if (it->second.ownerUid != uid) return std::nullopt;  // wrong privileges
    if (size > it->second.size) return std::nullopt;
    return it->second;
  }
  // Persistent regions use 1MB pages: small enough to not waste the
  // pool, large enough to stay static-TLB friendly.
  const std::uint64_t page = hw::kPage1M;
  const std::uint64_t mapped = hw::alignUp(size, page);
  if (poolUsed_ + mapped > poolSize_) return std::nullopt;
  PersistRegion r;
  r.name = name;
  r.vbase = vCursor_;
  r.pbase = poolBase_ + poolUsed_;
  r.size = mapped;
  r.pageSize = page;
  r.ownerUid = uid;
  poolUsed_ += mapped;
  vCursor_ += mapped;
  regions_[name] = r;
  return r;
}

const PersistRegion* PersistRegistry::find(const std::string& name) const {
  auto it = regions_.find(name);
  return it == regions_.end() ? nullptr : &it->second;
}

bool PersistRegistry::remove(const std::string& name, std::uint32_t uid) {
  auto it = regions_.find(name);
  if (it == regions_.end() || it->second.ownerUid != uid) return false;
  // Pool space is not reclaimed (regions are expected to live for the
  // machine partition's lifetime); the name simply becomes available.
  regions_.erase(it);
  return true;
}

bool writeSealed(hw::PhysMem& mem, hw::PAddr at, std::uint64_t room,
                 std::uint64_t magic, std::span<const std::byte> payload) {
  if (room < kSealedHeaderBytes ||
      payload.size() > room - kSealedHeaderBytes) {
    return false;
  }
  mem.write64(at, magic);
  mem.write64(at + 8, payload.size());
  mem.write64(at + 16, sim::hashBytes(payload));
  if (!payload.empty()) mem.write(at + kSealedHeaderBytes, payload);
  return true;
}

std::optional<std::vector<std::byte>> readSealed(const hw::PhysMem& mem,
                                                 hw::PAddr at,
                                                 std::uint64_t room,
                                                 std::uint64_t magic) {
  if (room < kSealedHeaderBytes || mem.read64(at) != magic) {
    return std::nullopt;
  }
  const std::uint64_t len = mem.read64(at + 8);
  if (len > room - kSealedHeaderBytes) return std::nullopt;
  const std::uint64_t seal = mem.read64(at + 16);
  std::vector<std::byte> payload(len);
  if (len != 0) mem.read(at + kSealedHeaderBytes, payload);
  if (sim::hashBytes(payload) != seal) return std::nullopt;
  return payload;
}

}  // namespace bg::cnk
