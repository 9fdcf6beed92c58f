// Unit tests: KernelBase plumbing — user-memory copies across page
// boundaries, string reads, signal-frame nesting, RAS logging, ELF
// image determinism, process bookkeeping, MPI broadcast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "cluster_test_util.hpp"
#include "kernel/elf.hpp"
#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"

namespace bg {
namespace {

using test::emitExit;
using test::runProgram;

std::int64_t sys(kernel::Sys s) { return static_cast<std::int64_t>(s); }
std::int64_t rtc(rt::Rt r) { return static_cast<std::int64_t>(r); }

// ---------------- ElfImage ----------------

TEST(ElfImage, TextContentsAreDeterministicPerName) {
  auto a = kernel::ElfImage::makeLibrary("libsame.so");
  auto b = kernel::ElfImage::makeLibrary("libsame.so");
  auto c = kernel::ElfImage::makeLibrary("libother.so");
  EXPECT_EQ(a->textChecksum(), b->textChecksum());
  EXPECT_NE(a->textChecksum(), c->textChecksum());
  EXPECT_TRUE(a->isPic());
}

// The synthesized text stream is a pinned format: every loader copy,
// checkpoint image and digest over loaded memory carries these bytes.
// One xoshiro256** draw per eight bytes, least significant byte first.
std::string hexPrefix(const std::vector<std::byte>& bytes, std::size_t n) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < n && i < bytes.size(); ++i) {
    const auto v = std::to_integer<unsigned>(bytes[i]);
    out += kDigits[v >> 4];
    out += kDigits[v & 0xF];
  }
  return out;
}

TEST(ElfImage, TextStreamPinned) {
  vm::ProgramBuilder b("t");
  b.halt();
  auto exe = kernel::ElfImage::makeExecutable("exe", std::move(b).build());
  auto lib = kernel::ElfImage::makeLibrary("libsame.so");
  ASSERT_EQ(exe->textContents().size(), 64u << 10);
  ASSERT_EQ(lib->textContents().size(), 64u << 10);
  EXPECT_EQ(hexPrefix(exe->textContents(), 16),
            "7b3c625299da6b9e417c61ffc3f27509");
  EXPECT_EQ(hexPrefix(lib->textContents(), 16),
            "88410ddacdc43971d4227ee4601f321d");
  EXPECT_EQ(exe->textChecksum(), 0x81010a5099ac9b90ULL);
  EXPECT_EQ(lib->textChecksum(), 0x067086ba8049e0f5ULL);
}

TEST(ElfImage, ExecutableCarriesProgram) {
  vm::ProgramBuilder b("t");
  b.halt();
  auto img = kernel::ElfImage::makeExecutable("exe", std::move(b).build(),
                                              2 << 20, 3 << 20);
  EXPECT_EQ(img->textBytes(), 2u << 20);
  EXPECT_EQ(img->dataBytes(), 3u << 20);
  EXPECT_FALSE(img->isPic());
  EXPECT_EQ(img->program().size(), 1u);
  // Materialized contents are capped but nonempty.
  EXPECT_FALSE(img->textContents().empty());
  EXPECT_LE(img->textContents().size(), 64u << 10);
}

// ---------------- user-memory plumbing ----------------

TEST(KernelBase, CopyAcrossRegionAndPageBoundaries) {
  std::unique_ptr<rt::Cluster> cluster;
  vm::ProgramBuilder b("t");
  b.compute(100);
  emitExit(b);
  auto r = runProgram({}, std::move(b).build(), &cluster);
  ASSERT_TRUE(r.completed);
  kernel::KernelBase& k = cluster->kernelOn(0);
  kernel::Process* p = cluster->processOfRank(0);

  // A buffer straddling many 4KB boundaries round-trips intact.
  std::vector<std::byte> out(40'000);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(i * 7);
  }
  const hw::VAddr va = p->heapBase + 4093;  // unaligned start
  ASSERT_TRUE(k.copyToUser(*p, va, out));
  std::vector<std::byte> back(out.size());
  ASSERT_TRUE(k.copyFromUser(*p, va, back));
  EXPECT_EQ(out, back);
}

TEST(KernelBase, CopyToUnmappedAddressFails) {
  std::unique_ptr<rt::Cluster> cluster;
  vm::ProgramBuilder b("t");
  emitExit(b);
  auto r = runProgram({}, std::move(b).build(), &cluster);
  kernel::KernelBase& k = cluster->kernelOn(0);
  kernel::Process* p = cluster->processOfRank(0);
  std::byte x{1};
  EXPECT_FALSE(k.copyToUser(*p, 0x7F00'0000, std::span(&x, 1)));
  EXPECT_FALSE(k.copyFromUser(*p, 0x7F00'0000, std::span(&x, 1)));
}

TEST(KernelBase, ReadUserStringStopsAtNulAndLimit) {
  std::unique_ptr<rt::Cluster> cluster;
  vm::ProgramBuilder b("t");
  emitExit(b);
  auto r = runProgram({}, std::move(b).build(), &cluster);
  kernel::KernelBase& k = cluster->kernelOn(0);
  kernel::Process* p = cluster->processOfRank(0);
  const char s[] = "hello";
  ASSERT_TRUE(k.copyToUser(*p, p->heapBase,
                           std::as_bytes(std::span(s, sizeof s))));
  auto got = k.readUserString(*p, p->heapBase);
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, "hello");
  // No NUL within the limit -> nullopt.
  std::vector<std::byte> noNul(64, std::byte{'x'});
  k.copyToUser(*p, p->heapBase + 256, noNul);
  EXPECT_FALSE(k.readUserString(*p, p->heapBase + 256, 32).has_value());
}

// ---------------- signals ----------------

TEST(Signals, NestedHandlersUnwindInOrder) {
  // USR1's handler raises USR2 against itself; both frames unwind back
  // to the main flow.
  vm::ProgramBuilder b("t");
  const std::size_t setup1 = b.size();
  b.li(1, static_cast<std::int64_t>(kernel::kSigUsr1));
  b.li(2, -1);
  b.syscall(sys(kernel::Sys::kRtSigaction));
  const std::size_t setup2 = b.size();
  b.li(1, static_cast<std::int64_t>(kernel::kSigUsr2));
  b.li(2, -1);
  b.syscall(sys(kernel::Sys::kRtSigaction));
  // raise(USR1)
  b.syscall(sys(kernel::Sys::kGettid));
  b.mov(2, 0);
  b.li(1, 0);
  b.li(3, static_cast<std::int64_t>(kernel::kSigUsr1));
  b.syscall(sys(kernel::Sys::kTgkill));
  b.li(20, 99);
  b.sample(20);  // resumed main flow
  emitExit(b);
  // handler for USR1: sample(1), raise USR2, sample(2) after return.
  const auto h1 = b.label();
  b.li(20, 1);
  b.sample(20);
  b.syscall(sys(kernel::Sys::kGettid));
  b.mov(2, 0);
  b.li(1, 0);
  b.li(3, static_cast<std::int64_t>(kernel::kSigUsr2));
  b.syscall(sys(kernel::Sys::kTgkill));
  b.li(20, 2);
  b.sample(20);
  b.syscall(sys(kernel::Sys::kRtSigreturn));
  // handler for USR2.
  const auto h2 = b.label();
  b.li(20, 3);
  b.sample(20);
  b.syscall(sys(kernel::Sys::kRtSigreturn));
  b.patchTarget(setup1 + 1, h1);
  b.patchTarget(setup2 + 1, h2);
  auto r = runProgram({}, std::move(b).build());
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.samples, (std::vector<std::uint64_t>{1, 3, 2, 99}));
}

TEST(Signals, SigreturnWithoutFrameKills) {
  vm::ProgramBuilder b("t");
  b.syscall(sys(kernel::Sys::kRtSigreturn));
  b.sample(1);
  emitExit(b);
  std::unique_ptr<rt::Cluster> cluster;
  auto r = runProgram({}, std::move(b).build(), &cluster);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.samples.empty());
  EXPECT_EQ(cluster->kernelOn(0).threadsKilled(), 1u);
}

// ---------------- RAS log ----------------

TEST(Ras, LogRecordsMachineCheckAndKills) {
  vm::ProgramBuilder b("t");
  b.syscall(sys(kernel::Sys::kRasEvent));  // no handler -> fatal
  emitExit(b);
  std::unique_ptr<rt::Cluster> cluster;
  auto r = runProgram({}, std::move(b).build(), &cluster);
  ASSERT_TRUE(r.completed);
  const auto& log = cluster->kernelOn(0).rasLog();
  ASSERT_GE(log.size(), 2u);
  // The job-load marker comes first; the machine check follows it.
  EXPECT_EQ(log[0].code, kernel::RasEvent::Code::kJobLoaded);
  bool sawMc = false;
  bool sawKill = false;
  for (const auto& e : log) {
    if (e.code == kernel::RasEvent::Code::kMachineCheck) {
      sawMc = true;
      EXPECT_EQ(e.severity, kernel::RasEvent::Severity::kWarn);
    }
    if (e.code == kernel::RasEvent::Code::kThreadKilled) sawKill = true;
  }
  EXPECT_TRUE(sawMc);
  EXPECT_TRUE(sawKill);
}

TEST(Ras, SegvLogsFaultingAddress) {
  vm::ProgramBuilder b("t");
  b.li(16, 0x7ABC0000);
  b.li(17, 1);
  b.store(16, 17, 0);
  emitExit(b);
  std::unique_ptr<rt::Cluster> cluster;
  auto r = runProgram({}, std::move(b).build(), &cluster);
  ASSERT_TRUE(r.completed);
  const auto& log = cluster->kernelOn(0).rasLog();
  ASSERT_FALSE(log.empty());
  const auto segv =
      std::find_if(log.begin(), log.end(), [](const kernel::RasEvent& e) {
        return e.code == kernel::RasEvent::Code::kSegv;
      });
  ASSERT_NE(segv, log.end());
  EXPECT_EQ(segv->detail, 0x7ABC0000u);
  EXPECT_EQ(segv->severity, kernel::RasEvent::Severity::kError);
}

// ---------------- MPI bcast ----------------

TEST(Bcast, RootValueReachesEveryRank) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  rt::Cluster cluster(cfg);
  ASSERT_TRUE(cluster.bootAll());
  vm::ProgramBuilder b("t");
  b.mov(16, 10);
  // Root (rank 1) seeds its buffer; everyone else zeros theirs.
  b.li(17, 0);
  b.store(16, 17, 0);
  b.li(18, 1);
  b.sub(18, 1, 18);
  const std::size_t notRoot = b.emitForwardBranch(vm::Op::kBnez, 18);
  b.li(17, 0x3FF0000000000000);  // double 1.0 bit pattern
  b.store(16, 17, 0);
  b.patchHere(notRoot);
  b.li(1, 1);   // root rank
  b.mov(2, 16);
  b.li(3, 1);
  b.rtcall(rtc(rt::Rt::kMpiBcast));
  b.load(19, 16, 0);
  b.sample(19);
  emitExit(b);
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  std::vector<std::vector<std::uint64_t>> s(4);
  for (int i = 0; i < 4; ++i) cluster.attachSamples(i, 0, &s[i]);
  ASSERT_TRUE(cluster.loadJob(job));
  ASSERT_TRUE(cluster.run());
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(s[i].size(), 1u) << "rank " << i;
    EXPECT_EQ(s[i][0], 0x3FF0000000000000u) << "rank " << i;
  }
}

// ---------------- process bookkeeping ----------------

TEST(Process, RegionLookupAndStaticResolve) {
  kernel::Process p(1, nullptr);
  kernel::MemRegionDesc r;
  r.name = "text";
  r.vbase = 0x1000000;
  r.pbase = 0x2000000;
  r.size = 0x100000;
  r.perms = hw::kPermRX;
  p.regions.push_back(r);
  EXPECT_EQ(p.regionFor(0x1000000), &p.regions[0]);
  EXPECT_EQ(p.regionFor(0x10FFFFF), &p.regions[0]);
  EXPECT_EQ(p.regionFor(0x1100000), nullptr);
  EXPECT_EQ(p.resolveStatic(0x1000040), 0x2000040u);
  EXPECT_FALSE(p.resolveStatic(0).has_value());
  EXPECT_EQ(p.regionNamed("text"), &p.regions[0]);
  EXPECT_EQ(p.regionNamed("nope"), nullptr);
}

TEST(Process, ThreadLifecycleCounts) {
  kernel::Process p(1, nullptr);
  kernel::Thread& a = p.addThread(10);
  kernel::Thread& t2 = p.addThread(11);
  EXPECT_TRUE(a.isMain());
  EXPECT_FALSE(t2.isMain());
  EXPECT_EQ(p.liveThreads(), 2u);
  t2.ctx.state = hw::ThreadState::kHalted;
  EXPECT_EQ(p.liveThreads(), 1u);
  EXPECT_EQ(p.threadByTid(11), &t2);
  EXPECT_EQ(p.threadByTid(99), nullptr);
}

TEST(Futex, TableFifoAndRemove) {
  kernel::FutexTable ft;
  kernel::Process p(1, nullptr);
  kernel::Thread& a = p.addThread(1);
  kernel::Thread& t2 = p.addThread(2);
  kernel::Thread& c = p.addThread(3);
  ft.enqueue(1, 0x100, &a);
  ft.enqueue(1, 0x100, &t2);
  ft.enqueue(1, 0x200, &c);
  EXPECT_EQ(ft.waiterCount(1, 0x100), 2u);
  EXPECT_EQ(ft.totalWaiters(), 3u);
  ft.remove(&t2);
  auto woken = ft.dequeue(1, 0x100, 10);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], &a);
  // Different pid does not alias.
  EXPECT_EQ(ft.waiterCount(2, 0x200), 0u);
  EXPECT_EQ(ft.waiterCount(1, 0x200), 1u);
}

}  // namespace
}  // namespace bg
