// Virtual filesystem used on the I/O nodes (and by the FWK baseline).
//
// The paper's point (§VI-A) is that CNK has essentially *no* I/O
// subsystem: POSIX semantics come from Linux on the I/O node. This VFS
// is that Linux-side substrate: mounted backends (RamFS, NFS-sim) with
// POSIX-ish result codes, per-client fd tables with seek offsets and a
// cwd — the state each ioproxy mirrors for its compute-node process.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace bg::io {

struct FileStat {
  std::uint64_t size = 0;
  bool isDir = false;
};

enum class FsOpKind : std::uint8_t {
  kOpen,
  kClose,
  kRead,
  kWrite,
  kLseek,
  kStat,
  kUnlink,
  kMkdir,
  kRename,
};

/// A mounted filesystem backend. All calls return >= 0 on success or a
/// negative errno.
class FsBackend {
 public:
  virtual ~FsBackend() = default;

  virtual std::int64_t open(const std::string& path, std::uint64_t flags) = 0;
  virtual std::int64_t close(std::int64_t handle) = 0;
  virtual std::int64_t pread(std::int64_t handle, std::span<std::byte> out,
                             std::uint64_t offset) = 0;
  virtual std::int64_t pwrite(std::int64_t handle,
                              std::span<const std::byte> in,
                              std::uint64_t offset) = 0;
  virtual std::int64_t stat(const std::string& path, FileStat* out) = 0;
  virtual std::int64_t unlink(const std::string& path) = 0;
  virtual std::int64_t mkdir(const std::string& path) = 0;
  /// Atomic within one backend; the default backend refuses (-ENOSYS)
  /// so pre-rename backends keep compiling unchanged.
  virtual std::int64_t rename(const std::string& oldPath,
                              const std::string& newPath);
  virtual std::int64_t fileSize(std::int64_t handle) = 0;

  /// Simulated service time for an operation of `bytes` payload,
  /// issued at cycle `now` (lets backends model jitter deterministically).
  virtual sim::Cycle opLatency(FsOpKind op, std::uint64_t bytes,
                               sim::Cycle now) = 0;
};

/// Mount table shared by every client on a node.
class Vfs {
 public:
  void mount(std::string prefix, std::shared_ptr<FsBackend> backend);

  struct Resolved {
    FsBackend* backend;
    std::string relPath;
  };
  /// Longest-prefix mount resolution of an absolute path.
  std::optional<Resolved> resolve(const std::string& absPath) const;

 private:
  // Longest prefix first: ordered map on descending prefix length.
  std::vector<std::pair<std::string, std::shared_ptr<FsBackend>>> mounts_;
};

/// Per-process filesystem state: fd table (with offsets and flags) and
/// current working directory. This is exactly the state an ioproxy
/// mirrors for its compute-node process (paper Fig 2).
class VfsClient {
 public:
  VfsClient(Vfs& vfs, sim::Engine& engine) : vfs_(vfs), engine_(engine) {}

  /// Returns fd >= 0 or -errno.
  std::int64_t open(const std::string& path, std::uint64_t flags);
  std::int64_t close(int fd);
  std::int64_t read(int fd, std::span<std::byte> out);
  std::int64_t write(int fd, std::span<const std::byte> in);
  /// Positioned variants: operate at an explicit offset and leave the
  /// fd's offset at offset+n. The function-shipping protocol uses
  /// these so a retransmitted read/write is idempotent — re-executing
  /// it hits the same file range and re-produces the same state.
  std::int64_t preadAt(int fd, std::span<std::byte> out,
                       std::uint64_t offset);
  std::int64_t pwriteAt(int fd, std::span<const std::byte> in,
                        std::uint64_t offset);
  std::int64_t lseek(int fd, std::int64_t offset, std::uint64_t whence);
  std::int64_t stat(const std::string& path, FileStat* out);
  std::int64_t unlink(const std::string& path);
  std::int64_t mkdir(const std::string& path);
  /// Both paths must resolve to the same backend (-EINVAL otherwise);
  /// atomicity is the backend's.
  std::int64_t rename(const std::string& oldPath, const std::string& newPath);
  std::int64_t dup(int fd);
  std::int64_t chdir(const std::string& path);
  const std::string& cwd() const { return cwd_; }

  /// Service latency for the most recent operation (the caller charges
  /// this to the simulated clock).
  sim::Cycle lastLatency() const { return lastLatency_; }

  std::string absolutize(const std::string& path) const;

  /// Current seek offset of an open fd (nullopt when fd is not open).
  std::optional<std::uint64_t> offsetOf(int fd) const {
    auto it = fds_.find(fd);
    if (it == fds_.end()) return std::nullopt;
    return it->second->offset;
  }

  // --- failover restore (CIOD rebuilding an ioproxy from CNK's
  // shadow state; see io/ciod.cpp) ---
  /// Recreate `fd` at its exact number by reopening `path`, or — when
  /// shareWithFd >= 0 — by sharing that fd's open file description
  /// (a dup group). Returns fd on success or -errno.
  std::int64_t restoreFd(int fd, const std::string& path,
                         std::uint64_t flags, std::uint64_t offset,
                         int shareWithFd);
  void setCwd(std::string cwd) { cwd_ = std::move(cwd); }
  void setNextFd(int next) { nextFd_ = next; }

 private:
  /// Shared "open file description": dup'd fds share the offset, and
  /// the backend handle closes only when the last fd drops.
  struct OpenFile {
    FsBackend* backend;
    std::int64_t handle;
    std::uint64_t offset;
    std::uint64_t flags;
  };
  OpenFile* fdGet(int fd);
  int fdAlloc();

  Vfs& vfs_;
  sim::Engine& engine_;
  std::string cwd_ = "/";
  std::map<int, std::shared_ptr<OpenFile>> fds_;
  int nextFd_ = 3;  // 0/1/2 reserved for std streams
  sim::Cycle lastLatency_ = 0;
};

/// Normalize a path: collapse //, resolve . and .. lexically.
std::string normalizePath(const std::string& path);

}  // namespace bg::io
