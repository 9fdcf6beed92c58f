#include "kernel/elf.hpp"

#include "sim/hash.hpp"
#include "sim/rng.hpp"

namespace bg::kernel {

namespace {
std::vector<std::byte> synthesizeText(const std::string& name,
                                      std::uint64_t bytes) {
  // Cap the materialized image; the logical size may be larger (the
  // partitioner works with logical sizes) but only this prefix carries
  // checkable content.
  const std::uint64_t materialized = std::min<std::uint64_t>(bytes, 64 << 10);
  std::vector<std::byte> out(materialized);
  sim::Rng(0xE1F0, name).fill(out);
  return out;
}
}  // namespace

std::shared_ptr<ElfImage> ElfImage::makeExecutable(std::string name,
                                                   vm::Program program,
                                                   std::uint64_t textBytes,
                                                   std::uint64_t dataBytes) {
  auto img = std::shared_ptr<ElfImage>(new ElfImage());
  img->name_ = std::move(name);
  img->program_ = std::move(program);
  img->textBytes_ = textBytes;
  img->dataBytes_ = dataBytes;
  img->pic_ = false;
  img->text_ = synthesizeText(img->name_, textBytes);
  return img;
}

std::shared_ptr<ElfImage> ElfImage::makeLibrary(std::string name,
                                                std::uint64_t textBytes,
                                                std::uint64_t dataBytes) {
  auto img = std::shared_ptr<ElfImage>(new ElfImage());
  img->name_ = std::move(name);
  img->textBytes_ = textBytes;
  img->dataBytes_ = dataBytes;
  img->pic_ = true;
  img->text_ = synthesizeText(img->name_, textBytes);
  return img;
}

std::uint64_t ElfImage::textChecksum() const {
  return sim::hashBytes(text_);
}

}  // namespace bg::kernel
