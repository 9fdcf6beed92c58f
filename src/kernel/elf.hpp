// Synthetic ELF images.
//
// Real ELF parsing is out of scope; what the kernels need from an
// executable is exactly what the paper says the loader consumes
// (§IV-C): section sizes and locations for text/read-only data and
// data/bss, plus (for dynamic executables) the list of needed
// libraries. The entry point is a VM program. Text contents are
// synthesized deterministically so that copies (dynamic linking, the
// MAP_COPY path) move real, checkable bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vm/program.hpp"

namespace bg::kernel {

class ElfImage {
 public:
  /// Build a (static) executable image.
  static std::shared_ptr<ElfImage> makeExecutable(
      std::string name, vm::Program program,
      std::uint64_t textBytes = 1 << 20, std::uint64_t dataBytes = 1 << 20);

  /// Build a position-independent shared library image. Libraries may
  /// carry callable entry points (programs) too.
  static std::shared_ptr<ElfImage> makeLibrary(
      std::string name, std::uint64_t textBytes = 256 << 10,
      std::uint64_t dataBytes = 64 << 10);

  const std::string& name() const { return name_; }
  const vm::Program& program() const { return program_; }
  std::uint64_t textBytes() const { return textBytes_; }
  std::uint64_t dataBytes() const { return dataBytes_; }
  bool isPic() const { return pic_; }

  /// Deterministic synthesized text image (used by loaders that copy
  /// real bytes; contents derived from the name so two libraries never
  /// alias).
  const std::vector<std::byte>& textContents() const { return text_; }

  /// Checksum a loader can use to verify a copied image.
  std::uint64_t textChecksum() const;

 private:
  ElfImage() = default;

  std::string name_;
  vm::Program program_;
  std::uint64_t textBytes_ = 0;
  std::uint64_t dataBytes_ = 0;
  bool pic_ = false;
  std::vector<std::byte> text_;
};

}  // namespace bg::kernel
