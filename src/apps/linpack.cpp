#include "apps/linpack.hpp"

#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"
#include "vm/builder.hpp"

namespace bg::apps {
namespace {

constexpr std::uint32_t kTouchBytes = 128 << 10;  // per-phase panel sweep
constexpr std::uint32_t kTouchStride = 128;

}  // namespace

std::shared_ptr<kernel::ElfImage> linpackImage(const LinpackParams& p) {
  using vm::Reg;
  constexpr Reg rPhase = 16;
  constexpr Reg rT0 = 17;
  constexpr Reg rT1 = 18;
  constexpr Reg rTmp = 19;
  constexpr Reg rPanel = 20;

  vm::ProgramBuilder b("linpack");
  b.mov(rPanel, 10);  // panel storage at heap base
  b.readTb(rT0);

  const auto top = b.loopBegin(rPhase, p.phases);
  b.compute(kLinpackComputePerPhase);
  b.memTouch(rPanel, 0, kTouchBytes, kTouchStride, /*write=*/true);
  b.mov(1, 10);
  b.li(2, 1);
  b.mov(3, 10);
  b.addi(3, 3, 4096);
  b.rtcall(static_cast<std::int64_t>(rt::Rt::kMpiAllreduce));
  b.loopEnd(rPhase, top);

  b.readTb(rT1);
  b.sub(rTmp, rT1, rT0);
  b.sample(rTmp);  // one sample: total run cycles
  b.li(vm::kArg0, 0);
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kExit));
  return kernel::ElfImage::makeExecutable("linpack", std::move(b).build(),
                                          1 << 20, 2 << 20);
}

}  // namespace bg::apps
