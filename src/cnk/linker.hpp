// CNK dynamic-linking support (paper §IV-B2).
//
// Models the ld.so behaviour CNK enabled: the library image is fetched
// whole from the I/O node's filesystem (open/read/close over the
// function-ship protocol — the ld.so MAP_COPY path) and loaded fully
// into memory at dlopen time. No page permissions are applied to the
// library's text/read-only data — a conscious lightweight-design
// decision: the cost is paid once, contained in startup/dlopen, rather
// than as demand-paging noise during compute.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hw/addr.hpp"
#include "hw/kernel_if.hpp"
#include "kernel/process.hpp"

namespace bg::cnk {

class CnkKernel;

struct LoadedLib {
  std::string name;
  hw::VAddr textBase = 0;
  std::uint64_t textSize = 0;
  hw::VAddr dataBase = 0;
  std::uint64_t dataSize = 0;
  std::uint64_t checksum = 0;  // of the loaded text bytes
};

class Linker {
 public:
  explicit Linker(CnkKernel& kern) : kern_(kern) {}

  /// Begin a dlopen on behalf of thread t. The calling thread blocks
  /// (no yield, like any I/O) while the image is fetched and mapped;
  /// it wakes with a handle (> 0) or -errno.
  hw::HandlerResult dlopen(kernel::Thread& t, const std::string& libName);

  const LoadedLib* byName(std::uint32_t pid, const std::string& name) const;
  std::size_t loadedCount(std::uint32_t pid) const;

 private:
  void step2Read(kernel::Thread& t, const std::string& name,
                 std::int64_t fd);
  void step3CloseAndMap(kernel::Thread& t, const std::string& name,
                        std::int64_t fd, std::vector<std::byte> image);

  CnkKernel& kern_;
  std::uint64_t nextHandle_ = 1;
  std::map<std::pair<std::uint32_t, std::uint64_t>, LoadedLib> libs_;
};

}  // namespace bg::cnk
