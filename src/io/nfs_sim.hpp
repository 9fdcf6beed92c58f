// NFS-like remote filesystem: a RamFs reached over a simulated
// server link, with deterministic-but-jittered service times.
//
// This models the network filesystems (NFS/GPFS/PVFS/Lustre) that are
// "installed on the I/O nodes and available to CNK processes via the
// ioproxy" (paper §IV-A). The jitter stream is seeded, so runs are
// reproducible while still showing realistic variance — it is also the
// reason the paper's Linux allreduce experiment (NFS needed between
// tests) is noisier than CNK's.
#pragma once

#include <memory>

#include "io/ramfs.hpp"
#include "sim/rng.hpp"

namespace bg::io {

class NfsSim : public FsBackend {
 public:
  NfsSim() : rng_(/*seed=*/7, "nfs") {}

  std::int64_t open(const std::string& path, std::uint64_t flags) override {
    return inner_.open(path, flags);
  }
  std::int64_t close(std::int64_t h) override { return inner_.close(h); }
  std::int64_t pread(std::int64_t h, std::span<std::byte> out,
                     std::uint64_t off) override {
    return inner_.pread(h, out, off);
  }
  std::int64_t pwrite(std::int64_t h, std::span<const std::byte> in,
                      std::uint64_t off) override {
    return inner_.pwrite(h, in, off);
  }
  std::int64_t stat(const std::string& path, FileStat* out) override {
    return inner_.stat(path, out);
  }
  std::int64_t unlink(const std::string& path) override {
    return inner_.unlink(path);
  }
  std::int64_t mkdir(const std::string& path) override {
    return inner_.mkdir(path);
  }
  std::int64_t rename(const std::string& oldPath,
                      const std::string& newPath) override {
    return inner_.rename(oldPath, newPath);
  }
  std::int64_t fileSize(std::int64_t h) override { return inner_.fileSize(h); }

  sim::Cycle opLatency(FsOpKind, std::uint64_t bytes, sim::Cycle) override;

  RamFs& storage() { return inner_; }

 private:
  RamFs inner_;
  sim::Rng rng_;
};

}  // namespace bg::io
