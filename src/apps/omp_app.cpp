#include "apps/omp_app.hpp"

#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"
#include "vm/builder.hpp"

namespace bg::apps {
namespace {
constexpr std::uint64_t kPhaseCycles = 80'000;  // per-thread work per phase
}  // namespace

std::shared_ptr<kernel::ElfImage> ompAppImage(const OmpAppParams& p) {
  using vm::Reg;
  constexpr Reg rPhase = 16;
  constexpr Reg rI = 17;
  constexpr Reg rOk = 18;      // workers created this phase
  constexpr Reg rTidBase = 19;
  constexpr Reg rTmp = 20;

  vm::ProgramBuilder b("omp_app");
  b.mov(rTidBase, 10);
  b.addi(rTidBase, rTidBase, 1024);

  std::vector<std::size_t> entryFixups;

  const auto phaseTop = b.loopBegin(rPhase, p.phases);

  // MPI phase: compute + allreduce with the other ranks.
  b.compute(kPhaseCycles);
  b.mov(1, 10);
  b.li(2, 1);
  b.mov(3, 10);
  b.addi(3, 3, 256);
  b.rtcall(static_cast<std::int64_t>(rt::Rt::kMpiAllreduce));

  // OpenMP phase: fork a team of ompThreads (master + workers). On a
  // statically-partitioned CNK node, worker creation fails with EAGAIN
  // unless this process may run threads on other cores (§VIII).
  b.li(rOk, 0);
  for (int i = 1; i < p.ompThreads; ++i) {
    entryFixups.push_back(b.size());
    b.li(vm::kArg0, -1);  // worker entry pc, patched below
    b.li(2, 0);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kPthreadCreate));
    // Success iff 0 < tid < 2^20 (errors are -errno as unsigned).
    b.li(rTmp, 1 << 20);
    const std::size_t skip =
        b.emitForwardBranch(vm::Op::kBlt, rTmp, vm::kRetReg);
    b.shl(rI, rOk, 3);
    b.add(rI, rTidBase, rI);
    b.store(rI, vm::kRetReg, 0);
    b.addi(rOk, rOk, 1);
    b.patchHere(skip);
  }
  b.sample(rOk);  // per-phase sample: team workers actually created

  // Master does its chunk of the parallel work, then joins the team.
  b.compute(kPhaseCycles);
  b.li(rI, 0);
  const auto joinTop = b.label();
  const std::size_t joinDone = b.emitForwardBranch(vm::Op::kBeqz, rOk);
  b.shl(rTmp, rI, 3);
  b.add(rTmp, rTidBase, rTmp);
  b.load(vm::kArg0, rTmp, 0);
  b.rtcall(static_cast<std::int64_t>(rt::Rt::kPthreadJoin));
  b.addi(rI, rI, 1);
  b.blt(rI, rOk, joinTop);
  b.patchHere(joinDone);

  b.loopEnd(rPhase, phaseTop);

  b.li(vm::kArg0, 0);
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kExit));

  // Worker: compute its chunk, exit (join synchronizes the team).
  const std::int64_t workerEntry = b.label();
  b.compute(kPhaseCycles);
  b.halt();

  for (std::size_t fix : entryFixups) b.patchTarget(fix, workerEntry);

  return kernel::ElfImage::makeExecutable("omp_app", std::move(b).build());
}

}  // namespace bg::apps
