// Integration tests: Cluster assembly — multi-node/multi-I/O-node
// topologies, pset routing of function-shipped I/O, rank wiring,
// consoles, DUAL mode, shared memory, getcwd mirroring, stat/fstat,
// the file/futex syscall ABI on both kernels,
// file-backed mmap, and the FTQ companion benchmark.
#include <gtest/gtest.h>

#include <cstring>

#include "apps/ftq.hpp"
#include "cluster_test_util.hpp"
#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"

namespace bg {
namespace {

using test::emitExit;
using test::runProgram;

std::int64_t sys(kernel::Sys s) { return static_cast<std::int64_t>(s); }

/// Emit code storing the NUL-terminated `path` at heapBase+`off`,
/// leaving the address in r21.
void emitPathAt(vm::ProgramBuilder& b, std::int64_t off, const char* path) {
  b.mov(21, 10);
  b.addi(21, 21, off);
  const std::size_t len = std::strlen(path) + 1;
  for (std::size_t i = 0; i < len; i += 8) {
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < 8 && i + j < len; ++j) {
      w |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(path[i + j]))
           << (8 * j);
    }
    b.li(20, static_cast<std::int64_t>(w));
    b.store(21, 20, static_cast<std::int64_t>(i));
  }
}

TEST(Cluster, PsetRoutingSendsEachNodeToItsIoNode) {
  // 4 compute nodes, 2 I/O nodes, pset size 2: nodes 0,1 -> ION 0 and
  // nodes 2,3 -> ION 1; each rank's checkpoint lands on its own ION.
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.ioNodes = 2;
  cfg.computeNodesPerIoNode = 2;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());

  vm::ProgramBuilder b("t");
  emitPathAt(b, 256, "/tmp/x");
  b.mov(1, 21);
  b.li(2, static_cast<std::int64_t>(kernel::kOCreat | kernel::kOWronly));
  b.syscall(sys(kernel::Sys::kOpen));
  b.mov(16, 0);
  b.mov(1, 16);
  b.mov(2, 10);
  b.li(3, 64);
  b.syscall(sys(kernel::Sys::kWrite));
  b.mov(1, 16);
  b.syscall(sys(kernel::Sys::kClose));
  emitExit(b);

  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());

  EXPECT_EQ(cluster.ciod(0).proxyCount(), 2u);
  EXPECT_EQ(cluster.ciod(1).proxyCount(), 2u);
  EXPECT_EQ(cluster.ciod(0).stats().errors, 0u);
  EXPECT_EQ(cluster.ciod(1).stats().errors, 0u);
  EXPECT_TRUE(cluster.ioRootFs(0).exists("/tmp/x"));
  EXPECT_TRUE(cluster.ioRootFs(1).exists("/tmp/x"));
}

TEST(Cluster, DualModeRunsTwoProcessesTwoCoresEach) {
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  vm::ProgramBuilder b("t");
  b.sample(1);  // rank
  emitExit(b);
  kernel::JobSpec job;
  job.processes = 2;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  std::vector<std::uint64_t> s0, s1;
  cluster.attachSamples(0, 0, &s0);
  cluster.attachSamples(1, 0, &s1);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  EXPECT_EQ(s0, std::vector<std::uint64_t>{0});
  EXPECT_EQ(s1, std::vector<std::uint64_t>{1});
  auto* cnk = cluster.cnkOn(0);
  for (auto& p : cnk->processes()) {
    EXPECT_EQ(cnk->coresOf(p->pid()).size(), 2u);
  }
}

TEST(Cluster, SharedMemoryIsVisibleAcrossProcesses) {
  // VN mode: rank 0 stores into the shared region (r12), rank 1 spins
  // until the value appears — same physical range, no messaging.
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  vm::ProgramBuilder b("t");
  const std::size_t toReader = b.emitForwardBranch(vm::Op::kBnez, 1);
  // rank 0: write the flag.
  b.compute(10'000);
  b.li(16, 0xA5A5);
  b.store(12, 16, 128);
  emitExit(b);
  b.patchHere(toReader);
  // other ranks: rank 1 polls, ranks 2/3 exit immediately.
  b.li(17, 1);
  b.sub(17, 1, 17);
  const std::size_t onlyRank1 = b.emitForwardBranch(vm::Op::kBnez, 17);
  const auto poll = b.label();
  b.load(16, 12, 128);
  b.beqz(16, poll);
  b.sample(16);
  b.patchHere(onlyRank1);
  emitExit(b);

  kernel::JobSpec job;
  job.processes = 4;
  job.sharedMemBytes = 1 << 20;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  std::vector<std::uint64_t> s1;
  cluster.attachSamples(1, 0, &s1);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(s1.size(), 1u);
  EXPECT_EQ(s1[0], 0xA5A5u);
}

TEST(Cluster, GetcwdReflectsShippedChdir) {
  // chdir is function-shipped; getcwd must come back from the ioproxy's
  // mirrored state, not stale local state (paper Fig 2).
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  vm::ProgramBuilder b("t");
  emitPathAt(b, 256, "/tmp");
  b.mov(1, 21);
  b.syscall(sys(kernel::Sys::kChdir));
  b.sample(0);
  b.mov(1, 10);
  b.addi(1, 1, 2048);
  b.li(2, 64);
  b.syscall(sys(kernel::Sys::kGetcwd));
  b.sample(0);  // strlen+1 of "/tmp" = 5
  b.load(16, 10, 2048);
  b.sample(16);  // the bytes themselves
  emitExit(b);
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  std::vector<std::uint64_t> s;
  cluster.attachSamples(0, 0, &s);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 0u);
  EXPECT_EQ(s[1], 5u);
  // "/tmp\0" little-endian.
  EXPECT_EQ(s[2] & 0xFFFFFFFFFFULL, 0x00706D742FULL);
}

TEST(Cluster, StatShipsAndFillsUserStruct) {
  // stat() fills 16 bytes, u64 size, u8 isDir and 7 zero bytes, on CNK
  // (through the fship reply) and on FWK (locally): a buffer pre-filled
  // with 0xAA must come back with bytes 9-15 zero, not host stack bytes.
  for (const rt::KernelKind kind :
       {rt::KernelKind::kCnk, rt::KernelKind::kFwk}) {
    SCOPED_TRACE(kind == rt::KernelKind::kCnk ? "cnk" : "fwk");
    rt::ClusterConfig cfg;
    cfg.kernel = kind;
    rt::Cluster cluster(cfg);
    ASSERT_TRUE(cluster.bootAll());
    vm::ProgramBuilder b("t");
    emitPathAt(b, 256, "/st");
    b.mov(1, 21);
    b.li(2, static_cast<std::int64_t>(kernel::kOCreat | kernel::kOWronly));
    b.syscall(sys(kernel::Sys::kOpen));
    b.mov(16, 0);
    b.mov(1, 16);
    b.mov(2, 10);
    b.li(3, 123);
    b.syscall(sys(kernel::Sys::kWrite));
    b.mov(1, 16);
    b.syscall(sys(kernel::Sys::kClose));
    b.li(20, static_cast<std::int64_t>(0xAAAAAAAAAAAAAAAAULL));
    b.store(10, 20, 4096);
    b.store(10, 20, 4104);
    b.mov(1, 21);
    b.mov(2, 10);
    b.addi(2, 2, 4096);
    b.syscall(sys(kernel::Sys::kStat));
    b.sample(0);
    b.load(16, 10, 4096);
    b.sample(16);
    b.load(16, 10, 4104);
    b.sample(16);
    emitExit(b);
    kernel::JobSpec job;
    job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
    std::vector<std::uint64_t> s;
    cluster.attachSamples(0, 0, &s);
    ASSERT_TRUE(cluster.loadJob(job));
    ASSERT_TRUE(cluster.run());
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0], 0u);
    EXPECT_EQ(s[1], 123u);
    EXPECT_EQ(s[2], 0u) << std::hex << s[2];  // isDir 0, then 7 zero bytes
  }
}

/// Emit `syscall(s)` (arguments already in r1..r3) between two
/// timebase reads. Samples the result, then the cycles between the
/// reads: a readTb, the trap and the kernel's handler cost.
void emitTimedSyscall(vm::ProgramBuilder& b, kernel::Sys s) {
  b.readTb(24);
  b.syscall(sys(s));
  b.readTb(25);
  b.sample(0);
  b.sub(25, 25, 24);
  b.sample(25);
}

/// Sample the word at heapBase+`off` with a zero cycle slot, keeping
/// the (value, cycles) pairing of emitTimedSyscall.
void emitSampleWord(vm::ProgramBuilder& b, std::int64_t off) {
  b.load(22, 10, off);
  b.sample(22);
  b.li(22, 0);
  b.sample(22);
}

TEST(Cluster, SyscallAbiSameOnBothKernels) {
  // The Linux syscall ABI is one contract on both kernels: CNK ships
  // the file syscalls to the ioproxy, the FWK runs them on its own
  // VFS, and both must return the same values and leave the same
  // bytes in user memory. Futex wait/wake and the CLONE_CHILD_CLEARTID
  // join wake run through the same kernel-side table on both.
  constexpr std::uint64_t kPattern = 0x0807060504030201ULL;
  constexpr std::uint64_t kStride = 0x0808080808080808ULL;
  constexpr std::uint64_t kFill = 0xAAAAAAAAAAAAAAAAULL;
  vm::ProgramBuilder b("t");
  // 104 pattern bytes at heap+1024 (byte i == i + 1); 0xAA filler at
  // the read and stat destinations.
  for (int i = 0; i < 13; ++i) {
    b.li(20, static_cast<std::int64_t>(kPattern + kStride * i));
    b.store(10, 20, 1024 + 8 * i);
  }
  b.li(20, static_cast<std::int64_t>(kFill));
  for (int i = 0; i < 8; ++i) b.store(10, 20, 3072 + 8 * i);
  for (int i = 0; i < 8; ++i) b.store(10, 20, 3200 + 8 * i);
  b.store(10, 20, 4096);
  b.store(10, 20, 4104);

  emitPathAt(b, 256, "/tmp/abi");
  b.mov(1, 21);
  emitTimedSyscall(b, kernel::Sys::kMkdir);  // 0
  b.mov(1, 21);
  emitTimedSyscall(b, kernel::Sys::kMkdir);  // -EEXIST
  b.mov(1, 21);
  emitTimedSyscall(b, kernel::Sys::kChdir);  // 0
  b.mov(1, 10);
  b.addi(1, 1, 2048);
  b.li(2, 64);
  b.syscall(sys(kernel::Sys::kGetcwd));      // 9: "/tmp/abi\0"
  b.sample(0);
  b.li(22, 0);
  b.sample(22);
  emitSampleWord(b, 2048);
  emitSampleWord(b, 2056);

  emitPathAt(b, 320, "f");                   // relative to the new cwd
  b.mov(1, 21);
  b.li(2, static_cast<std::int64_t>(kernel::kOCreat | kernel::kORdwr));
  emitTimedSyscall(b, kernel::Sys::kOpen);   // fd 3
  b.mov(16, 0);
  b.mov(1, 16);
  b.mov(2, 10);
  b.addi(2, 2, 1024);
  b.li(3, 100);
  emitTimedSyscall(b, kernel::Sys::kWrite);  // 100
  b.mov(1, 16);
  b.li(2, 10);
  b.li(3, 0);                                // SEEK_SET
  emitTimedSyscall(b, kernel::Sys::kLseek);  // 10
  b.mov(1, 16);
  b.mov(2, 10);
  b.addi(2, 2, 3072);
  b.li(3, 40);
  emitTimedSyscall(b, kernel::Sys::kRead);   // 40: bytes 10..49
  for (int i = 0; i < 6; ++i) emitSampleWord(b, 3072 + 8 * i);
  b.mov(1, 16);
  emitTimedSyscall(b, kernel::Sys::kDup);    // fd 4, shares the offset
  b.mov(17, 0);
  b.mov(1, 17);
  b.mov(2, 10);
  b.addi(2, 2, 3200);
  b.li(3, 64);
  emitTimedSyscall(b, kernel::Sys::kRead);   // 50: bytes 50..99
  for (int i = 0; i < 8; ++i) emitSampleWord(b, 3200 + 8 * i);
  b.mov(1, 16);
  b.mov(2, 10);
  b.addi(2, 2, 3072);
  b.li(3, 8);
  emitTimedSyscall(b, kernel::Sys::kRead);   // 0 at EOF
  b.mov(1, 21);
  b.mov(2, 10);
  b.addi(2, 2, 4096);
  emitTimedSyscall(b, kernel::Sys::kStat);   // 0, size 100
  emitSampleWord(b, 4096);
  emitSampleWord(b, 4104);
  b.mov(1, 17);
  emitTimedSyscall(b, kernel::Sys::kClose);  // 0
  b.mov(1, 16);
  emitTimedSyscall(b, kernel::Sys::kClose);  // 0
  b.mov(1, 16);
  emitTimedSyscall(b, kernel::Sys::kClose);  // -EBADF
  b.li(1, 99);
  b.mov(2, 10);
  b.li(3, 8);
  emitTimedSyscall(b, kernel::Sys::kRead);   // -EBADF
  b.mov(1, 21);
  emitTimedSyscall(b, kernel::Sys::kUnlink); // 0
  b.mov(1, 21);
  b.mov(2, 10);
  b.addi(2, 2, 4096);
  emitTimedSyscall(b, kernel::Sys::kStat);   // -ENOENT
  // A path pointer below the text segment is unmapped on both.
  b.li(1, 0x10);
  b.li(2, 0);
  emitTimedSyscall(b, kernel::Sys::kOpen);   // -EFAULT
  b.li(1, 0x10);
  emitTimedSyscall(b, kernel::Sys::kChdir);  // -EFAULT
  b.li(1, 5);
  b.li(2, 0x10);
  b.li(3, 8);
  emitTimedSyscall(b, kernel::Sys::kWrite);  // -EFAULT (copy-in)
  b.li(1, 1);
  b.mov(2, 10);
  b.addi(2, 2, 1024);
  b.li(3, 16);
  emitTimedSyscall(b, kernel::Sys::kWrite);  // 16 on the console

  // Futex: a mismatched value fails without blocking.
  b.mov(1, 10);
  b.addi(1, 1, 640);
  b.li(2, static_cast<std::int64_t>(kernel::kFutexWait));
  b.li(3, 99);
  emitTimedSyscall(b, kernel::Sys::kFutex);  // -EAGAIN
  // Wait/wake: the worker wakes heap+640 until a waiter is there.
  const std::size_t fix = b.size();
  b.li(1, -1);
  b.li(2, 0);
  b.rtcall(static_cast<std::int64_t>(rt::Rt::kPthreadCreate));
  b.mov(18, 0);
  b.mov(1, 10);
  b.addi(1, 1, 640);
  b.li(2, static_cast<std::int64_t>(kernel::kFutexWait));
  b.li(3, 0);
  b.syscall(sys(kernel::Sys::kFutex));       // 0 once woken
  b.sample(0);
  b.li(22, 0);
  b.sample(22);
  // Join: the worker is still computing, so this blocks until its
  // CLONE_CHILD_CLEARTID wake.
  b.mov(1, 18);
  b.rtcall(static_cast<std::int64_t>(rt::Rt::kPthreadJoin));
  b.sample(0);
  b.li(22, 0);
  b.sample(22);
  emitExit(b);

  const auto worker = b.label();
  const auto top = b.label();
  b.mov(1, 10);
  b.addi(1, 1, 640);
  b.li(2, static_cast<std::int64_t>(kernel::kFutexWake));
  b.li(3, 1);
  b.syscall(sys(kernel::Sys::kFutex));
  const std::size_t woke = b.emitForwardBranch(vm::Op::kBnez, 0);
  b.compute(1'000);
  b.jump(top);
  b.patchHere(woke);
  b.sample(0);  // woken count
  b.compute(200'000);
  b.halt();
  b.patchTarget(fix, worker);
  const vm::Program program = std::move(b).build();

  // Bytes 10..49 and 50..99 of the written pattern (byte i == i + 1),
  // little-endian, then the 0xAA filler the read must not touch.
  auto patternWord = [](int from, int n) {
    std::uint64_t w = 0;
    for (int j = 0; j < n; ++j) {
      w |= static_cast<std::uint64_t>(from + j + 1) << (8 * j);
    }
    return w;
  };
  std::vector<std::uint64_t> want = {
      0, static_cast<std::uint64_t>(-kernel::kEEXIST), 0,
      9, 0x6962612F706D742FULL, 0,  // "/tmp/abi", "\0"
      3, 100, 10, 40};
  for (int i = 0; i < 5; ++i) want.push_back(patternWord(10 + 8 * i, 8));
  want.push_back(kFill);
  want.push_back(4);
  want.push_back(50);
  for (int i = 0; i < 6; ++i) want.push_back(patternWord(50 + 8 * i, 8));
  want.push_back(patternWord(98, 2) | (kFill & ~0xFFFFULL));
  want.push_back(kFill);
  const auto err = [](std::int64_t e) {
    return static_cast<std::uint64_t>(-e);
  };
  want.insert(want.end(),
              {0, 0, 100, 0,              // EOF read; stat: size, isDir
               0, 0, err(kernel::kEBADF),  // close dup, close, re-close
               err(kernel::kEBADF), 0,     // read fd 99; unlink
               err(kernel::kENOENT),       // stat after unlink
               err(kernel::kEFAULT), err(kernel::kEFAULT),
               err(kernel::kEFAULT), 16,   // bad open/chdir/write; console
               err(kernel::kEAGAIN), 0, 0});  // futex mismatch, wait, join
  std::string wantConsole;
  for (int i = 0; i < 16; ++i) wantConsole.push_back(static_cast<char>(i + 1));

  for (const rt::KernelKind kind :
       {rt::KernelKind::kCnk, rt::KernelKind::kFwk}) {
    SCOPED_TRACE(kind == rt::KernelKind::kCnk ? "cnk" : "fwk");
    rt::ClusterConfig cfg;
    cfg.kernel = kind;
    // No tick or daemon lands inside a timed bracket on the FWK.
    cfg.fwk.enableTick = false;
    cfg.fwk.enableDaemons = false;
    rt::Cluster cluster(cfg);
    ASSERT_TRUE(cluster.bootAll(600'000'000));
    kernel::JobSpec job;
    job.exe = kernel::ElfImage::makeExecutable("t", program);
    std::vector<std::uint64_t> s, w;
    cluster.attachSamples(0, 0, &s);
    cluster.attachSamples(0, 1, &w);
    ASSERT_TRUE(cluster.loadJob(job));
    ASSERT_TRUE(cluster.run());
    ASSERT_EQ(s.size(), 2 * want.size());
    std::vector<std::uint64_t> got, cycles;
    for (std::size_t i = 0; i < s.size(); i += 2) {
      got.push_back(s[i]);
      if (s[i + 1] != 0) cycles.push_back(s[i + 1]);
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(w, std::vector<std::uint64_t>{1});  // one waiter woken
    EXPECT_EQ(cluster.consoleOf(0), wantConsole);
    if (kind == rt::KernelKind::kFwk) {
      // FWK handler costs, each plus a 1-cycle timebase read and the
      // 4-cycle trap: base syscall cost 260, +350 + len/16 for the
      // console, +80 for a futex value mismatch, the rest VFS latency.
      EXPECT_EQ(cycles, (std::vector<std::uint64_t>{
                            1965, 1965, 415,         // mkdir x2, chdir
                            1965, 1990, 385,         // open, write, lseek
                            1975, 385, 1977, 1965,   // read, dup, read x2
                            1965, 1965, 1965,        // stat, close x2
                            365, 365,                // EBADF close, read
                            1965, 1965,              // unlink, stat
                            265, 265, 265,           // EFAULT x3
                            616, 345}));             // console, EAGAIN
    }
  }
}

TEST(Cluster, FileBackedMmapCopiesInEagerly) {
  // CNK §VI-A: "to mmap a file, CNK copies in the data" — one shipped
  // read at map time, contents visible immediately afterwards.
  rt::ClusterConfig cfg;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  std::vector<std::byte> contents(4096);
  const std::uint64_t magic = 0x4D4D41502D464C45ULL;
  std::memcpy(contents.data(), &magic, 8);
  cluster.ioRootFs(0).putFile("/tmp/m", contents);

  vm::ProgramBuilder b("t");
  emitPathAt(b, 256, "/tmp/m");
  b.mov(1, 21);
  b.li(2, 0);
  b.syscall(sys(kernel::Sys::kOpen));
  b.mov(16, 0);  // fd
  // mmap(addr=0, len=4096, prot=R, flags=0 (file), fd, off=0)
  b.li(1, 0);
  b.li(2, 4096);
  b.li(3, static_cast<std::int64_t>(kernel::kProtRead));
  b.li(4, 0);
  b.mov(5, 16);
  b.syscall(sys(kernel::Sys::kMmap));
  b.mov(17, 0);
  b.sample(17);          // mapped address
  b.load(18, 17, 0);
  b.sample(18);          // magic, already present (no faulting later)
  emitExit(b);
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  std::vector<std::uint64_t> s;
  cluster.attachSamples(0, 0, &s);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  ASSERT_EQ(s.size(), 2u);
  EXPECT_GT(static_cast<std::int64_t>(s[0]), 0);
  EXPECT_EQ(s[1], magic);
}

TEST(Cluster, GetMemRegionsCountsStaticMap) {
  vm::ProgramBuilder b("t");
  b.syscall(sys(kernel::Sys::kGetMemRegions));
  b.sample(0);
  emitExit(b);
  kernel::JobSpec tmpl;
  tmpl.sharedMemBytes = 1 << 20;
  auto r = runProgram({}, std::move(b).build(), nullptr, tmpl);
  ASSERT_TRUE(r.completed);
  // text, data, heapStack, shared.
  EXPECT_EQ(r.samples[0], 4u);
}

TEST(Cluster, ConsolesAreSeparatePerNode) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  vm::ProgramBuilder b("t");
  // write(1, &rank_as_char, 1): store '0'+rank at heap.
  b.addi(16, 1, '0');
  b.mov(17, 10);
  b.store(17, 16, 0);
  b.li(1, 1);
  b.mov(2, 10);
  b.li(3, 1);
  b.syscall(sys(kernel::Sys::kWrite));
  emitExit(b);
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  EXPECT_EQ(cluster.consoleOf(0), "0");
  EXPECT_EQ(cluster.consoleOf(1), "1");
}

TEST(FtqApp, WindowsCountUnitsAndNoiseShowsAsDeficit) {
  auto run = [&](rt::KernelKind kind) {
    rt::ClusterConfig cfg;
    cfg.kernel = kind;
    rt::Cluster cluster(cfg);
    EXPECT_TRUE(cluster.bootAll());
    apps::FtqParams fp;
    fp.windows = 200;
    kernel::JobSpec job;
    job.exe = apps::ftqImage(fp);
    std::vector<std::uint64_t> s;
    cluster.attachSamples(0, 0, &s);
    EXPECT_TRUE(cluster.loadJob(job));
    EXPECT_TRUE(cluster.run());
    return s;
  };
  const auto cnk = run(rt::KernelKind::kCnk);
  const auto fwk = run(rt::KernelKind::kFwk);
  ASSERT_EQ(cnk.size(), 200u);
  ASSERT_EQ(fwk.size(), 200u);
  // CNK: every window completes the same number of units.
  const auto [cmn, cmx] = std::minmax_element(cnk.begin(), cnk.end());
  EXPECT_EQ(*cmn, *cmx);
  // FWK: some windows lose units to noise.
  const auto [fmn, fmx] = std::minmax_element(fwk.begin(), fwk.end());
  EXPECT_LT(*fmn, *fmx);
  EXPECT_LE(*fmn, *cmn);
}

}  // namespace
}  // namespace bg
