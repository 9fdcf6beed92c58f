#include "hw/phys_mem.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "sim/hash.hpp"

namespace bg::hw {

void PhysMem::checkAccess(PAddr addr, std::uint64_t len) const {
  if (selfRefresh_) {
    throw std::runtime_error("PhysMem: access while DDR in self-refresh");
  }
  if (addr + len > size_ || addr + len < addr) {
    throw std::out_of_range("PhysMem: access beyond physical memory");
  }
}

std::byte* PhysMem::frameFor(std::uint64_t frameIndex) {
  auto it = frames_.find(frameIndex);
  if (it == frames_.end()) {
    auto buf = std::make_unique<std::byte[]>(kFrameSize);
    std::memset(buf.get(), 0, kFrameSize);
    it = frames_.emplace(frameIndex, std::move(buf)).first;
  }
  return it->second.get();
}

const std::byte* PhysMem::frameIfPresent(std::uint64_t frameIndex) const {
  auto it = frames_.find(frameIndex);
  return it == frames_.end() ? nullptr : it->second.get();
}

bool PhysMem::anyFramePresent(PAddr addr, std::uint64_t len) const {
  if (len == 0) return false;
  const std::uint64_t last = (addr + len - 1) / kFrameSize;
  for (std::uint64_t fi = addr / kFrameSize; fi <= last; ++fi) {
    if (frames_.contains(fi)) return true;
  }
  return false;
}

void PhysMem::write(PAddr addr, std::span<const std::byte> data) {
  checkAccess(addr, data.size());
  std::uint64_t off = 0;
  while (off < data.size()) {
    const std::uint64_t fi = (addr + off) / kFrameSize;
    const std::uint64_t fo = (addr + off) % kFrameSize;
    const std::uint64_t n =
        std::min<std::uint64_t>(kFrameSize - fo, data.size() - off);
    std::memcpy(frameFor(fi) + fo, data.data() + off, n);
    off += n;
  }
}

void PhysMem::read(PAddr addr, std::span<std::byte> out) const {
  checkAccess(addr, out.size());
  std::uint64_t off = 0;
  while (off < out.size()) {
    const std::uint64_t fi = (addr + off) / kFrameSize;
    const std::uint64_t fo = (addr + off) % kFrameSize;
    const std::uint64_t n =
        std::min<std::uint64_t>(kFrameSize - fo, out.size() - off);
    if (const std::byte* f = frameIfPresent(fi)) {
      std::memcpy(out.data() + off, f + fo, n);
    } else {
      std::memset(out.data() + off, 0, n);
    }
    off += n;
  }
}

std::uint64_t PhysMem::read64(PAddr addr) const {
  std::uint64_t v = 0;
  read(addr, std::as_writable_bytes(std::span(&v, 1)));
  return v;
}

void PhysMem::write64(PAddr addr, std::uint64_t value) {
  write(addr, std::as_bytes(std::span(&value, 1)));
}

void PhysMem::zero(PAddr addr, std::uint64_t len) {
  checkAccess(addr, len);
  std::uint64_t off = 0;
  while (off < len) {
    const std::uint64_t fi = (addr + off) / kFrameSize;
    const std::uint64_t fo = (addr + off) % kFrameSize;
    const std::uint64_t n = std::min<std::uint64_t>(kFrameSize - fo, len - off);
    // Only touch frames that exist; absent frames already read as zero.
    if (frames_.contains(fi)) std::memset(frameFor(fi) + fo, 0, n);
    off += n;
  }
}

std::uint64_t PhysMem::hashRange(PAddr addr, std::uint64_t len) const {
  checkAccess(addr, len);
  sim::Fnv1a h;
  std::uint64_t off = 0;
  static const std::byte zeros[256] = {};
  while (off < len) {
    const std::uint64_t fi = (addr + off) / kFrameSize;
    const std::uint64_t fo = (addr + off) % kFrameSize;
    const std::uint64_t n = std::min<std::uint64_t>(kFrameSize - fo, len - off);
    if (const std::byte* f = frameIfPresent(fi)) {
      h.mixBytes(std::span(f + fo, n));
    } else {
      std::uint64_t z = 0;
      while (z < n) {
        const std::uint64_t c = std::min<std::uint64_t>(sizeof zeros, n - z);
        h.mixBytes(std::span(zeros, c));
        z += c;
      }
    }
    off += n;
  }
  return h.digest();
}

}  // namespace bg::hw
