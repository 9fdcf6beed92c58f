#include "apps/ftq.hpp"

#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"
#include "vm/builder.hpp"

namespace bg::apps {

namespace {

using vm::Reg;
constexpr Reg rWin = 16;    // window counter
constexpr Reg rCount = 17;  // units completed this window
constexpr Reg rEnd = 18;    // window end timebase
constexpr Reg rNow = 19;
constexpr Reg rTidBase = 20;

constexpr std::uint64_t kWindowCycles = 850'000;  // 1ms at 850MHz
constexpr std::uint64_t kUnitCycles = 2'000;      // one work unit

void emitFtqLoop(vm::ProgramBuilder& b, const FtqParams& p) {
  const auto outer = b.loopBegin(rWin, p.windows);
  b.readTb(rEnd);
  b.addi(rEnd, rEnd, static_cast<std::int64_t>(kWindowCycles));
  b.li(rCount, 0);
  const auto unit = b.label();
  b.compute(kUnitCycles);
  b.addi(rCount, rCount, 1);
  b.readTb(rNow);
  b.blt(rNow, rEnd, unit);
  b.sample(rCount);
  b.loopEnd(rWin, outer);
}

}  // namespace

std::shared_ptr<kernel::ElfImage> ftqImage(const FtqParams& p) {
  vm::ProgramBuilder b("ftq");
  b.mov(rTidBase, 10);
  b.addi(rTidBase, rTidBase, 1024);

  std::vector<std::size_t> fixes;
  for (int i = 1; i < p.threads; ++i) {
    fixes.push_back(b.size());
    b.li(vm::kArg0, -1);
    b.li(2, 0);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kPthreadCreate));
    b.store(rTidBase, vm::kRetReg, (i - 1) * 8);
  }
  emitFtqLoop(b, p);
  for (int i = 1; i < p.threads; ++i) {
    b.load(vm::kArg0, rTidBase, (i - 1) * 8);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kPthreadJoin));
  }
  b.li(vm::kArg0, 0);
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kExit));

  const std::int64_t worker = b.label();
  emitFtqLoop(b, p);
  b.halt();
  for (auto f : fixes) b.patchTarget(f, worker);

  return kernel::ElfImage::makeExecutable("ftq", std::move(b).build());
}

}  // namespace bg::apps
