// In-memory filesystem backend with real byte contents.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "io/vfs.hpp"

namespace bg::io {

class RamFs : public FsBackend {
 public:
  RamFs() = default;

  std::int64_t open(const std::string& path, std::uint64_t flags) override;
  std::int64_t close(std::int64_t handle) override;
  std::int64_t pread(std::int64_t handle, std::span<std::byte> out,
                     std::uint64_t offset) override;
  std::int64_t pwrite(std::int64_t handle, std::span<const std::byte> in,
                      std::uint64_t offset) override;
  std::int64_t stat(const std::string& path, FileStat* out) override;
  std::int64_t unlink(const std::string& path) override;
  std::int64_t mkdir(const std::string& path) override;
  std::int64_t rename(const std::string& oldPath,
                      const std::string& newPath) override;
  std::int64_t fileSize(std::int64_t handle) override;
  sim::Cycle opLatency(FsOpKind op, std::uint64_t bytes,
                       sim::Cycle now) override;

  /// Host-side helper to preload file content (e.g. dynamic library
  /// images staged for the job).
  void putFile(const std::string& path, std::vector<std::byte> contents);
  /// Host-side read of a full file (test inspection).
  std::vector<std::byte> fileContents(const std::string& path) const;
  bool exists(const std::string& path) const;

 private:
  struct File {
    std::vector<std::byte> data;
    int openCount = 0;
  };
  std::map<std::string, std::shared_ptr<File>> files_;
  std::set<std::string> dirs_{"/"};
  std::map<std::int64_t, std::shared_ptr<File>> handles_;
  std::int64_t nextHandle_ = 1;
};

}  // namespace bg::io
