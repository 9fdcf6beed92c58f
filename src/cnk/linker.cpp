#include "cnk/linker.hpp"

#include <utility>

#include "cnk/cnk_kernel.hpp"
#include "sim/hash.hpp"

namespace bg::cnk {

using kernel::Thread;

hw::HandlerResult Linker::dlopen(Thread& t, const std::string& libName) {
  // ld.so model (§IV-B2): open the library file on the I/O node,
  // read the WHOLE image (MAP_COPY semantics — no demand paging), close
  // it, then map text+data into the process. The calling thread blocks
  // through the entire sequence: the load cost is contained in dlopen,
  // not smeared over compute as page-fault noise.
  auto img = kern_.libImage(libName);
  if (img == nullptr) {
    return hw::HandlerResult::done(
        static_cast<std::uint64_t>(-kernel::kENOENT), 120);
  }

  Thread* tp = &t;
  const std::string path = "/lib/" + libName;
  const sim::Cycle cost = kern_.fship().shipRaw(
      io::FsOp::kOpen, t.ctx.pid, t.ctx.tid, kernel::kORdonly, 0, 0, path,
      {}, [this, tp, name = libName](io::FsReply&& rep) {
        if (rep.result < 0) {
          kern_.wakeThread(*tp, static_cast<std::uint64_t>(rep.result));
          return;
        }
        step2Read(*tp, name, rep.result);
      });

  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return hw::HandlerResult::blocked(300 + cost);
}

void Linker::step2Read(Thread& t, const std::string& name, std::int64_t fd) {
  auto img = kern_.libImage(name);
  const std::uint64_t want = img->textContents().size();
  Thread* tp = &t;
  kern_.fship().shipRaw(
      io::FsOp::kRead, t.ctx.pid, t.ctx.tid,
      static_cast<std::uint64_t>(fd), want, 0, {}, {},
      [this, tp, name, fd](io::FsReply&& rep) {
        if (rep.result < 0) {
          kern_.wakeThread(*tp, static_cast<std::uint64_t>(rep.result));
          return;
        }
        step3CloseAndMap(*tp, name, fd, std::move(rep.payload));
      });
}

void Linker::step3CloseAndMap(Thread& t, const std::string& name,
                              std::int64_t fd,
                              std::vector<std::byte> image) {
  Thread* tp = &t;
  kern_.fship().shipRaw(
      io::FsOp::kClose, t.ctx.pid, t.ctx.tid,
      static_cast<std::uint64_t>(fd), 0, 0, {}, {},
      [this, tp, name, image = std::move(image)](io::FsReply&&) mutable {
        auto img = kern_.libImage(name);
        kernel::Process& p = tp->proc;
        MmapTracker& mt = kern_.mmapOf(p);

        const std::uint64_t textLen =
            hw::alignUp(std::max<std::uint64_t>(img->textBytes(), 4096),
                        4096);
        const std::uint64_t dataLen =
            hw::alignUp(std::max<std::uint64_t>(img->dataBytes(), 4096),
                        4096);
        const auto textBase = mt.alloc(textLen);
        const auto dataBase = mt.alloc(dataLen);
        if (!textBase || !dataBase) {
          kern_.wakeThread(*tp,
                           static_cast<std::uint64_t>(-kernel::kENOMEM));
          return;
        }

        // Copy the real image bytes into place. The text lands in
        // plain RW heap pages: read-only/executable protections are
        // deliberately NOT applied (§IV-B2) — the application could
        // scribble on this and CNK will not stop it.
        kern_.copyToUser(p, *textBase, image);

        LoadedLib lib;
        lib.name = name;
        lib.textBase = *textBase;
        lib.textSize = textLen;
        lib.dataBase = *dataBase;
        lib.dataSize = dataLen;
        lib.checksum = sim::hashBytes(image);
        const std::uint64_t handle = nextHandle_++;
        libs_[{p.pid(), handle}] = lib;

        // dlopen returns the mapped base (directly usable, like the
        // pointer a real dlopen hands back).
        kern_.wakeThread(*tp, *textBase);
      });
}

const LoadedLib* Linker::byName(std::uint32_t pid,
                                const std::string& name) const {
  for (const auto& [key, lib] : libs_) {
    if (key.first == pid && lib.name == name) return &lib;
  }
  return nullptr;
}

std::size_t Linker::loadedCount(std::uint32_t pid) const {
  std::size_t n = 0;
  for (const auto& [key, lib] : libs_) {
    if (key.first == pid) ++n;
  }
  return n;
}

}  // namespace bg::cnk
