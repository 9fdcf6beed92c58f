// Demand-paged address space for the FWK baseline.
//
// VMAs describe ranges; pages materialize on first touch (page fault:
// buddy frame allocation + zeroing, or a copy from the backing file
// image — over simulated networked storage for dynamic libraries).
// This is the structural contrast with CNK's static map: translation
// state changes during execution, and faults happen at
// application-determined (noisy) times.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hw/addr.hpp"
#include "kernel/elf.hpp"

namespace bg::fwk {

struct Vma {
  enum class Kind : std::uint8_t { kAnon, kFileLazy };
  hw::VAddr base = 0;
  std::uint64_t size = 0;
  std::uint8_t perms = hw::kPermRW;
  Kind kind = Kind::kAnon;
  std::shared_ptr<kernel::ElfImage> file;  // for kFileLazy
  std::uint64_t fileOffset = 0;
  /// kFileLazy pages of a library fetched over networked storage pay
  /// the remote latency on each first-touch (paper §IV-B2 argument).
  bool remoteBacked = false;

  bool contains(hw::VAddr va) const {
    return va >= base && va - base < size;
  }
};

struct PageEntry {
  hw::PAddr frame = 0;
  std::uint8_t perms = 0;
  bool present = false;
};

class AddressSpace {
 public:
  void addVma(Vma vma);
  /// Remove VMAs overlapping [base, base+size); frees nothing (caller
  /// owns frame reclamation via forEachPresentPage).
  void removeVma(hw::VAddr base, std::uint64_t size);
  Vma* vmaFor(hw::VAddr va);
  const Vma* vmaFor(hw::VAddr va) const;

  /// Change permissions over a range (affects the VMA and any present
  /// pages) — full memory protection, which CNK lacks.
  bool protect(hw::VAddr base, std::uint64_t size, std::uint8_t perms);

  PageEntry* page(hw::VAddr va);
  void mapPage(hw::VAddr va, hw::PAddr frame, std::uint8_t perms);
  void unmapPage(hw::VAddr va);

 private:
  std::vector<Vma> vmas_;
  std::unordered_map<std::uint64_t, PageEntry> pages_;  // keyed by vpage
};

}  // namespace bg::fwk
