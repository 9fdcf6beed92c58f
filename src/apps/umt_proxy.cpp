#include "apps/umt_proxy.hpp"

#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"
#include "vm/builder.hpp"

namespace bg::apps {
namespace {
constexpr std::uint32_t kLibTouchBytes = 16 << 10;  // library text touched
}  // namespace

std::vector<std::shared_ptr<kernel::ElfImage>> umtLibraries(
    const UmtParams& p) {
  std::vector<std::shared_ptr<kernel::ElfImage>> libs;
  for (int i = 0; i < p.libs; ++i) {
    libs.push_back(kernel::ElfImage::makeLibrary(
        "libumt" + std::to_string(i) + ".so", /*textBytes=*/48 << 10,
        /*dataBytes=*/16 << 10));
  }
  return libs;
}

std::shared_ptr<kernel::ElfImage> umtImage(const UmtParams& p) {
  using vm::Reg;
  constexpr Reg rT0 = 16;
  constexpr Reg rT1 = 17;
  constexpr Reg rTmp = 18;
  constexpr Reg rLibBase = 19;  // first dlopened library handle/base
  constexpr Reg rTidBase = 20;
  constexpr Reg rFd = 21;
  constexpr Reg rPathBuf = 22;

  vm::ProgramBuilder b("umt");
  b.mov(rTidBase, 10);
  b.addi(rTidBase, rTidBase, 1024);

  // --- dlopen phase (Python extension loading) ---
  b.readTb(rT0);
  for (int i = 0; i < p.libs; ++i) {
    b.li(vm::kArg0, i);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kDlopen));
    if (i == 0) b.mov(rLibBase, vm::kRetReg);
  }
  b.readTb(rT1);
  b.sub(rTmp, rT1, rT0);
  b.sample(rTmp);

  // --- threaded compute phase ---
  b.readTb(rT0);
  std::vector<std::size_t> fixups;
  for (int i = 1; i < p.threads; ++i) {
    fixups.push_back(b.size());
    b.li(vm::kArg0, -1);
    b.mov(2, rLibBase);  // workers touch the dlopened library too
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kPthreadCreate));
    b.store(rTidBase, vm::kRetReg, (i - 1) * 8);
  }
  // Master executes out of the library image as well: on the FWK this
  // is where lazy library pages fault in from networked storage.
  b.memTouch(rLibBase, 0, kLibTouchBytes);
  b.compute(p.computeCycles);
  for (int i = 1; i < p.threads; ++i) {
    b.load(vm::kArg0, rTidBase, (i - 1) * 8);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kPthreadJoin));
  }
  b.readTb(rT1);
  b.sub(rTmp, rT1, rT0);
  b.sample(rTmp);

  // --- output file via the I/O path ---
  // Path string "/tmp/umt.out" built in memory at heapBase+256.
  b.mov(rPathBuf, 10);
  b.addi(rPathBuf, rPathBuf, 256);
  const char path[] = "/tmp/umt.out";
  for (std::size_t i = 0; i < sizeof(path); i += 8) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 8 && i + j < sizeof(path); ++j) {
      word |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(path[i + j]))
              << (8 * j);
    }
    b.li(rTmp, static_cast<std::int64_t>(word));
    b.store(rPathBuf, rTmp, static_cast<std::int64_t>(i));
  }
  b.mov(1, rPathBuf);
  b.li(2, static_cast<std::int64_t>(kernel::kOCreat | kernel::kOWronly));
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kOpen));
  b.mov(rFd, vm::kRetReg);

  b.mov(1, rFd);
  b.mov(2, 10);  // write from heap base
  b.li(3, kUmtOutputBytes);
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kWrite));
  b.sample(vm::kRetReg);  // bytes written

  b.mov(1, rFd);
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kClose));

  b.li(vm::kArg0, 0);
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kExit));

  // Worker: touch the library, compute, exit.
  const std::int64_t workerEntry = b.label();
  b.mov(rLibBase, vm::kArg0);
  b.memTouch(rLibBase, 0, kLibTouchBytes);
  b.compute(p.computeCycles);
  b.halt();

  for (std::size_t fix : fixups) b.patchTarget(fix, workerEntry);

  return kernel::ElfImage::makeExecutable("umt", std::move(b).build());
}

}  // namespace bg::apps
