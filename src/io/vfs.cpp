#include "io/vfs.hpp"

#include <algorithm>

#include "kernel/syscalls.hpp"
#include "sim/bytes.hpp"

namespace bg::io {

std::vector<std::byte> FileStat::encode() const {
  sim::ByteWriter w;
  w.u64(size);
  w.u8(isDir ? 1 : 0);
  w.grow(kBytes - 9);  // zero padding
  return std::move(w).take();
}

std::optional<FileStat> FileStat::decode(std::span<const std::byte> buf) {
  if (buf.size() != kBytes) return std::nullopt;
  sim::ByteReader r(buf);
  FileStat st;
  st.size = r.u64();
  st.isDir = r.u8() != 0;
  return st;
}

using kernel::kEBADF;
using kernel::kEINVAL;
using kernel::kENOENT;

std::string normalizePath(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  auto flush = [&] {
    if (cur.empty() || cur == ".") {
      // skip
    } else if (cur == "..") {
      if (!parts.empty()) parts.pop_back();
    } else {
      parts.push_back(cur);
    }
    cur.clear();
  };
  for (char c : path) {
    if (c == '/') {
      flush();
    } else {
      cur.push_back(c);
    }
  }
  flush();
  std::string out = "/";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out += parts[i];
    if (i + 1 < parts.size()) out += "/";
  }
  return out;
}

std::int64_t FsBackend::rename(const std::string& oldPath,
                               const std::string& newPath) {
  (void)oldPath;
  (void)newPath;
  return -kernel::kENOSYS;
}

void Vfs::mount(std::string prefix, std::shared_ptr<FsBackend> backend) {
  mounts_.emplace_back(normalizePath(prefix), std::move(backend));
  std::sort(mounts_.begin(), mounts_.end(),
            [](const auto& a, const auto& b) {
              return a.first.size() > b.first.size();
            });
}

std::optional<Vfs::Resolved> Vfs::resolve(const std::string& absPath) const {
  const std::string p = normalizePath(absPath);
  for (const auto& [prefix, backend] : mounts_) {
    if (p == prefix) return Resolved{backend.get(), "/"};
    const std::string pfx = prefix == "/" ? "" : prefix;
    if (p.size() > pfx.size() && p.compare(0, pfx.size(), pfx) == 0 &&
        p[pfx.size()] == '/') {
      return Resolved{backend.get(), p.substr(pfx.size())};
    }
  }
  return std::nullopt;
}

std::string VfsClient::absolutize(const std::string& path) const {
  if (!path.empty() && path[0] == '/') return normalizePath(path);
  return normalizePath(cwd_ + "/" + path);
}

VfsClient::OpenFile* VfsClient::fdGet(int fd) {
  auto it = fds_.find(fd);
  return it == fds_.end() ? nullptr : it->second.get();
}

int VfsClient::fdAlloc() { return nextFd_++; }

std::int64_t VfsClient::open(const std::string& path, std::uint64_t flags) {
  const std::string abs = absolutize(path);
  auto res = vfs_.resolve(abs);
  if (!res) {
    lastLatency_ = 200;
    return -kENOENT;
  }
  const std::int64_t h = res->backend->open(res->relPath, flags);
  lastLatency_ = res->backend->opLatency(FsOpKind::kOpen, 0, engine_.now());
  if (h < 0) return h;
  const int fd = fdAlloc();
  std::uint64_t offset = 0;
  if (flags & kernel::kOAppend) {
    const std::int64_t sz = res->backend->fileSize(h);
    if (sz > 0) offset = static_cast<std::uint64_t>(sz);
  }
  fds_[fd] = std::make_shared<OpenFile>(
      OpenFile{res->backend, h, offset, flags});
  return fd;
}

std::int64_t VfsClient::close(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    lastLatency_ = 100;
    return -kEBADF;
  }
  std::shared_ptr<OpenFile> f = std::move(it->second);
  fds_.erase(it);
  lastLatency_ = f->backend->opLatency(FsOpKind::kClose, 0, engine_.now());
  if (f.use_count() == 1) {
    // Last fd on this description: release the backend handle.
    f->backend->close(f->handle);
  }
  return 0;
}

std::int64_t VfsClient::preadAt(int fd, std::span<std::byte> out,
                                std::uint64_t offset) {
  OpenFile* f = fdGet(fd);
  if (f == nullptr) {
    lastLatency_ = 100;
    return -kEBADF;
  }
  const std::int64_t n = f->backend->pread(f->handle, out, offset);
  lastLatency_ = f->backend->opLatency(FsOpKind::kRead,
                                       n > 0 ? static_cast<std::uint64_t>(n) : 0,
                                       engine_.now());
  if (n >= 0) f->offset = offset + static_cast<std::uint64_t>(n);
  return n;
}

std::int64_t VfsClient::pwriteAt(int fd, std::span<const std::byte> in,
                                 std::uint64_t offset) {
  OpenFile* f = fdGet(fd);
  if (f == nullptr) {
    lastLatency_ = 100;
    return -kEBADF;
  }
  const std::int64_t n = f->backend->pwrite(f->handle, in, offset);
  lastLatency_ = f->backend->opLatency(FsOpKind::kWrite,
                                       n > 0 ? static_cast<std::uint64_t>(n) : 0,
                                       engine_.now());
  if (n >= 0) f->offset = offset + static_cast<std::uint64_t>(n);
  return n;
}

std::int64_t VfsClient::lseek(int fd, std::int64_t offset,
                              std::uint64_t whence) {
  OpenFile* f = fdGet(fd);
  lastLatency_ = 120;
  if (f == nullptr) return -kEBADF;
  std::int64_t base = 0;
  switch (whence) {
    case kernel::kSeekSet: base = 0; break;
    case kernel::kSeekCur: base = static_cast<std::int64_t>(f->offset); break;
    case kernel::kSeekEnd: base = f->backend->fileSize(f->handle); break;
    default: return -kEINVAL;
  }
  const std::int64_t target = base + offset;
  if (target < 0) return -kEINVAL;
  f->offset = static_cast<std::uint64_t>(target);
  return target;
}

std::int64_t VfsClient::stat(const std::string& path, FileStat* out) {
  const std::string abs = absolutize(path);
  auto res = vfs_.resolve(abs);
  if (!res) {
    lastLatency_ = 200;
    return -kENOENT;
  }
  lastLatency_ = res->backend->opLatency(FsOpKind::kStat, 0, engine_.now());
  return res->backend->stat(res->relPath, out);
}

std::int64_t VfsClient::unlink(const std::string& path) {
  const std::string abs = absolutize(path);
  auto res = vfs_.resolve(abs);
  if (!res) {
    lastLatency_ = 200;
    return -kENOENT;
  }
  lastLatency_ = res->backend->opLatency(FsOpKind::kUnlink, 0, engine_.now());
  return res->backend->unlink(res->relPath);
}

std::int64_t VfsClient::mkdir(const std::string& path) {
  const std::string abs = absolutize(path);
  auto res = vfs_.resolve(abs);
  if (!res) {
    lastLatency_ = 200;
    return -kENOENT;
  }
  lastLatency_ = res->backend->opLatency(FsOpKind::kMkdir, 0, engine_.now());
  return res->backend->mkdir(res->relPath);
}

std::int64_t VfsClient::rename(const std::string& oldPath,
                               const std::string& newPath) {
  const std::string absOld = absolutize(oldPath);
  const std::string absNew = absolutize(newPath);
  auto resOld = vfs_.resolve(absOld);
  auto resNew = vfs_.resolve(absNew);
  if (!resOld || !resNew) {
    lastLatency_ = 200;
    return -kENOENT;
  }
  if (resOld->backend != resNew->backend) {
    // Cross-mount rename would not be atomic; refuse like EXDEV.
    lastLatency_ = 200;
    return -kEINVAL;
  }
  lastLatency_ =
      resOld->backend->opLatency(FsOpKind::kRename, 0, engine_.now());
  return resOld->backend->rename(resOld->relPath, resNew->relPath);
}

std::int64_t VfsClient::dup(int fd) {
  auto it = fds_.find(fd);
  lastLatency_ = 120;
  if (it == fds_.end()) return -kEBADF;
  const int nfd = fdAlloc();
  fds_[nfd] = it->second;  // shared description: offset and handle
  return nfd;
}

std::int64_t VfsClient::restoreFd(int fd, const std::string& path,
                                  std::uint64_t flags, std::uint64_t offset,
                                  int shareWithFd) {
  if (fds_.count(fd) != 0) return -kEBADF;
  if (shareWithFd >= 0) {
    auto it = fds_.find(shareWithFd);
    if (it == fds_.end()) return -kEBADF;
    fds_[fd] = it->second;
    return fd;
  }
  auto res = vfs_.resolve(normalizePath(path));
  if (!res) return -kENOENT;
  // Strip O_TRUNC: the file's contents are the survivor's state, not
  // something to re-truncate on every failover.
  const std::uint64_t openFlags = flags & ~kernel::kOTrunc;
  const std::int64_t h = res->backend->open(res->relPath, openFlags);
  if (h < 0) return h;
  fds_[fd] = std::make_shared<OpenFile>(
      OpenFile{res->backend, h, offset, openFlags});
  return fd;
}

std::int64_t VfsClient::chdir(const std::string& path) {
  const std::string abs = absolutize(path);
  auto res = vfs_.resolve(abs);
  lastLatency_ = 150;
  if (!res) return -kENOENT;
  FileStat st;
  const std::int64_t rc = res->backend->stat(res->relPath, &st);
  if (rc < 0) return rc;
  if (!st.isDir) return -kernel::kENOTDIR;
  cwd_ = abs;
  return 0;
}

FsReply runFsOp(VfsClient& c, const FsRequest& req) {
  FsReply rep;
  const int fd = static_cast<int>(req.a0);
  switch (req.op) {
    case FsOp::kOpen:
      rep.result = c.open(req.path, req.a0);
      if (rep.result >= 0) {
        // The fd's initial offset (nonzero only for O_APPEND), so a
        // CNK shadow can reserve write offsets.
        sim::ByteWriter w;
        w.u64(c.offsetOf(static_cast<int>(rep.result)).value_or(0));
        rep.payload = std::move(w).take();
      }
      break;
    case FsOp::kClose:
      rep.result = c.close(fd);
      break;
    case FsOp::kRead:
      rep.payload.resize(req.a1);
      rep.result = c.preadAt(fd, rep.payload, req.a2);
      rep.payload.resize(rep.result > 0 ? static_cast<std::size_t>(rep.result)
                                        : 0);
      break;
    case FsOp::kWrite:
      rep.result = c.pwriteAt(fd, req.payload, req.a2);
      break;
    case FsOp::kLseek:
      rep.result = c.lseek(fd, static_cast<std::int64_t>(req.a1), req.a2);
      break;
    case FsOp::kStat: {
      FileStat st;
      rep.result = c.stat(req.path, &st);
      if (rep.result == 0) rep.payload = st.encode();
      break;
    }
    case FsOp::kUnlink:
      rep.result = c.unlink(req.path);
      break;
    case FsOp::kMkdir:
      rep.result = c.mkdir(req.path);
      break;
    case FsOp::kChdir:
      rep.result = c.chdir(req.path);
      break;
    case FsOp::kGetcwd: {
      const std::string& cwd = c.cwd();
      rep.result = static_cast<std::int64_t>(cwd.size() + 1);
      const auto* p = reinterpret_cast<const std::byte*>(cwd.c_str());
      rep.payload.assign(p, p + cwd.size() + 1);
      break;
    }
    case FsOp::kDup:
      rep.result = c.dup(fd);
      break;
    case FsOp::kRename:
      // The new name rides the payload as raw chars; `path` is the old
      // name.
      rep.result = c.rename(
          req.path, std::string(reinterpret_cast<const char*>(
                                    req.payload.data()),
                                req.payload.size()));
      break;
    case FsOp::kRestoreState:
      rep.result = -kEINVAL;
      break;
  }
  return rep;
}

}  // namespace bg::io
