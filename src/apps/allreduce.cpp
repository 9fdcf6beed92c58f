#include "apps/allreduce.hpp"

#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"
#include "vm/builder.hpp"

namespace bg::apps {
namespace {
constexpr std::uint64_t kDoubles = 1;  // double-sum payload elements
}  // namespace

std::shared_ptr<kernel::ElfImage> allreduceImage(const AllreduceParams& p) {
  using vm::Reg;
  constexpr Reg rIter = 16;
  constexpr Reg rT0 = 17;
  constexpr Reg rT1 = 18;
  constexpr Reg rTmp = 19;
  constexpr Reg rSrc = 20;
  constexpr Reg rDst = 21;

  vm::ProgramBuilder b("allreduce");
  // Source vector at heapBase, destination 4KB above it. Seed the
  // source with rank+1 so the sum is checkable host-side.
  b.mov(rSrc, 10);
  b.mov(rDst, 10);
  b.addi(rDst, rDst, 4096);
  // Write rank+1 as a crude "double": store the integer bits; the
  // host-side check reads them back symmetrically.
  b.addi(rTmp, 1, 1);
  b.store(rSrc, rTmp, 0);

  const auto top = b.loopBegin(rIter, p.iterations);
  if (p.computeCycles > 0) b.compute(p.computeCycles);
  b.readTb(rT0);
  b.mov(1, rSrc);
  b.li(2, static_cast<std::int64_t>(kDoubles));
  b.mov(3, rDst);
  b.rtcall(static_cast<std::int64_t>(rt::Rt::kMpiAllreduce));
  b.readTb(rT1);
  b.sub(rTmp, rT1, rT0);
  b.sample(rTmp);
  b.loopEnd(rIter, top);

  b.li(vm::kArg0, 0);
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kExit));
  return kernel::ElfImage::makeExecutable("allreduce", std::move(b).build());
}

}  // namespace bg::apps
