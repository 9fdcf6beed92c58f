#include "apps/fwq.hpp"

#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"
#include "vm/builder.hpp"

namespace bg::apps {

namespace {

using vm::Reg;

// Register conventions inside this program (r0-r6 are the ABI regs).
constexpr Reg rBuf = 16;     // this thread's vector buffer
constexpr Reg rSamp = 17;    // outer sample counter
constexpr Reg rRep = 18;     // inner repetition counter
constexpr Reg rT0 = 19;
constexpr Reg rT1 = 20;
constexpr Reg rTmp = 21;
constexpr Reg rTidBase = 23; // where created tids are stored

// Per-thread 64KB block at heapBase + 64KB + i*64KB: the DAXPY vectors
// live at offset 0, the L3-visible stream region at offset 8KB.
constexpr std::int64_t kBlockBase = 64 * 1024;
constexpr std::int64_t kBlockStride = 64 * 1024;
constexpr std::int64_t kStreamOffset = 8 * 1024;

constexpr int kRepsPerSample = 256;      // DAXPY repetitions per sample
constexpr std::uint32_t kVecBytes = 6144;  // 3 x 256 doubles: x, y, result
// A light per-sample sweep over a region larger than L1, so each
// sample generates a little shared-cache traffic. This is what gives
// CNK its tiny-but-nonzero noise floor (cross-core bank arbitration),
// matching the paper's <0.006% rather than an implausible exact zero.
constexpr std::uint32_t kStreamBytes = 48 << 10;
constexpr std::uint32_t kStreamStride = 4096;  // one L1 set: ~12 L3/sample

/// Emit the timed FWQ loop reading its buffer-block address from rBuf.
void emitFwqLoop(vm::ProgramBuilder& b, const FwqParams& p) {
  // Untimed warmup: two full iterations pull the vectors into L1,
  // settle the shared cache, and let sibling threads get past their
  // own cold starts (the FWQ methodology measures steady state).
  for (int w = 0; w < 2; ++w) {
    b.memTouch(rBuf, 0, kVecBytes);
    b.memTouch(rBuf, kStreamOffset, kStreamBytes, kStreamStride);
    const auto warm = b.loopBegin(rRep, kRepsPerSample);
    b.compute(p.cyclesPerRep);
    b.loopEnd(rRep, warm);
  }

  const auto outer = b.loopBegin(rSamp, p.samples);
  b.readTb(rT0);
  b.memTouch(rBuf, 0, kVecBytes);
  b.memTouch(rBuf, kStreamOffset, kStreamBytes, kStreamStride);
  const auto inner = b.loopBegin(rRep, kRepsPerSample);
  b.compute(p.cyclesPerRep);
  b.loopEnd(rRep, inner);
  b.readTb(rT1);
  b.sub(rTmp, rT1, rT0);
  b.sample(rTmp);
  b.loopEnd(rSamp, outer);
}

}  // namespace

std::shared_ptr<kernel::ElfImage> fwqImage(const FwqParams& p) {
  vm::ProgramBuilder b("fwq");

  // --- main ---
  // Worker buffers at heapBase + 64KB + i*16KB; created tids saved at
  // heapBase + 1KB + i*8 so main can join them.
  b.mov(rTidBase, 10);
  b.addi(rTidBase, rTidBase, 1024);

  std::vector<std::size_t> startPcFixups;
  for (int i = 1; i < p.threads; ++i) {
    // r1 = worker entry pc (patched below), r2 = worker buffer.
    startPcFixups.push_back(b.size());
    b.li(vm::kArg0, -1);  // placeholder for worker pc
    b.mov(2, 10);
    b.addi(2, 2, kBlockBase + i * kBlockStride);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kPthreadCreate));
    b.store(rTidBase, vm::kRetReg, (i - 1) * 8);
  }

  // Main runs the loop on its own buffer block.
  b.mov(rBuf, 10);
  b.addi(rBuf, rBuf, kBlockBase);
  emitFwqLoop(b, p);

  // Join the workers.
  for (int i = 1; i < p.threads; ++i) {
    b.load(vm::kArg0, rTidBase, (i - 1) * 8);
    b.rtcall(static_cast<std::int64_t>(rt::Rt::kPthreadJoin));
  }
  b.li(vm::kArg0, 0);
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kExit));

  // --- worker ---
  const std::int64_t workerEntry = b.label();
  b.mov(rBuf, vm::kArg0);  // arg = buffer address
  emitFwqLoop(b, p);
  b.halt();

  for (std::size_t fix : startPcFixups) b.patchTarget(fix, workerEntry);

  return kernel::ElfImage::makeExecutable("fwq", std::move(b).build(),
                                          /*textBytes=*/1 << 20,
                                          /*dataBytes=*/1 << 20);
}

}  // namespace bg::apps
