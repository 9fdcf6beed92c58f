// Unit + integration tests: VFS, RamFS, NFS model, the CIOD wire
// protocol, and the end-to-end function-shipped I/O path.
#include <gtest/gtest.h>

#include <cstring>

#include "cluster_test_util.hpp"
#include "io/ciod.hpp"
#include "io/nfs_sim.hpp"
#include "io/protocol.hpp"
#include "io/ramfs.hpp"
#include "io/vfs.hpp"
#include "kernel/syscalls.hpp"
#include "sim/rng.hpp"

namespace bg::io {
namespace {

using test::runProgram;

// ---------------- path handling ----------------

TEST(Paths, NormalizeCollapsesAndResolves) {
  EXPECT_EQ(normalizePath("/a//b/./c"), "/a/b/c");
  EXPECT_EQ(normalizePath("/a/b/../c"), "/a/c");
  EXPECT_EQ(normalizePath("/../.."), "/");
  EXPECT_EQ(normalizePath("///"), "/");
  EXPECT_EQ(normalizePath("/a/"), "/a");
}

// ---------------- RamFs ----------------

class RamFsTest : public ::testing::Test {
 protected:
  RamFs fs;
};

TEST_F(RamFsTest, CreateWriteReadBack) {
  const auto h = fs.open("/f", kernel::kOCreat | kernel::kOWronly);
  ASSERT_GT(h, 0);
  const std::uint8_t data[] = {9, 8, 7};
  EXPECT_EQ(fs.pwrite(h, std::as_bytes(std::span(data)), 0), 3);
  EXPECT_EQ(fs.fileSize(h), 3);
  std::uint8_t out[3] = {};
  EXPECT_EQ(fs.pread(h, std::as_writable_bytes(std::span(out)), 0), 3);
  EXPECT_EQ(out[0], 9);
  fs.close(h);
}

TEST_F(RamFsTest, OpenMissingWithoutCreateFails) {
  EXPECT_EQ(fs.open("/missing", kernel::kORdonly), -kernel::kENOENT);
}

TEST_F(RamFsTest, CreateRequiresParentDirectory) {
  EXPECT_EQ(fs.open("/no/such/dir/f", kernel::kOCreat), -kernel::kENOENT);
  EXPECT_EQ(fs.mkdir("/no"), 0);
  EXPECT_GT(fs.open("/no/f", kernel::kOCreat), 0);
}

TEST_F(RamFsTest, TruncateClearsContents) {
  auto h = fs.open("/f", kernel::kOCreat | kernel::kOWronly);
  const std::uint8_t d[] = {1};
  fs.pwrite(h, std::as_bytes(std::span(d)), 0);
  fs.close(h);
  h = fs.open("/f", kernel::kOWronly | kernel::kOTrunc);
  EXPECT_EQ(fs.fileSize(h), 0);
  fs.close(h);
}

TEST_F(RamFsTest, SparseWriteZeroFills) {
  const auto h = fs.open("/f", kernel::kOCreat | kernel::kORdwr);
  const std::uint8_t d[] = {5};
  fs.pwrite(h, std::as_bytes(std::span(d)), 100);
  std::uint8_t out[101];
  EXPECT_EQ(fs.pread(h, std::as_writable_bytes(std::span(out)), 0), 101);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[100], 5);
  fs.close(h);
}

TEST_F(RamFsTest, UnlinkKeepsOpenHandleAlive) {
  const auto h = fs.open("/f", kernel::kOCreat | kernel::kORdwr);
  const std::uint8_t d[] = {3};
  fs.pwrite(h, std::as_bytes(std::span(d)), 0);
  EXPECT_EQ(fs.unlink("/f"), 0);
  EXPECT_FALSE(fs.exists("/f"));
  std::uint8_t out[1];
  EXPECT_EQ(fs.pread(h, std::as_writable_bytes(std::span(out)), 0), 1);
  EXPECT_EQ(out[0], 3);
  fs.close(h);
}

TEST_F(RamFsTest, StatDistinguishesDirsAndFiles) {
  fs.mkdir("/d");
  fs.putFile("/d/f", {std::byte{1}, std::byte{2}});
  FileStat st;
  ASSERT_EQ(fs.stat("/d", &st), 0);
  EXPECT_TRUE(st.isDir);
  ASSERT_EQ(fs.stat("/d/f", &st), 0);
  EXPECT_FALSE(st.isDir);
  EXPECT_EQ(st.size, 2u);
  EXPECT_EQ(fs.stat("/x", &st), -kernel::kENOENT);
}

TEST_F(RamFsTest, MkdirErrors) {
  EXPECT_EQ(fs.mkdir("/d"), 0);
  EXPECT_EQ(fs.mkdir("/d"), -kernel::kEEXIST);
  EXPECT_EQ(fs.mkdir("/a/b"), -kernel::kENOENT);
}

// ---------------- VfsClient ----------------

class VfsClientTest : public ::testing::Test {
 protected:
  VfsClientTest() : client(vfs, engine) {
    root = std::make_shared<RamFs>();
    vfs.mount("/", root);
    root->mkdir("/tmp");
  }
  sim::Engine engine;
  Vfs vfs;
  std::shared_ptr<RamFs> root;
  VfsClient client{vfs, engine};
};

TEST_F(VfsClientTest, FdTableTracksOffsets) {
  const auto fd = client.open("/tmp/f", kernel::kOCreat | kernel::kORdwr);
  ASSERT_GE(fd, 3);
  const std::uint8_t d[] = {1, 2, 3, 4};
  EXPECT_EQ(client.pwriteAt(static_cast<int>(fd),
                            std::as_bytes(std::span(d)), 0),
            4);
  EXPECT_EQ(client.offsetOf(static_cast<int>(fd)), 4u);
  EXPECT_EQ(client.lseek(static_cast<int>(fd), 1, kernel::kSeekSet), 1);
  ASSERT_EQ(client.offsetOf(static_cast<int>(fd)), 1u);
  std::uint8_t out[2];
  EXPECT_EQ(client.preadAt(static_cast<int>(fd),
                           std::as_writable_bytes(std::span(out)), 1),
            2);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(client.offsetOf(static_cast<int>(fd)), 3u);
  client.close(static_cast<int>(fd));
}

TEST_F(VfsClientTest, SeekEndAndCur) {
  const auto fd = client.open("/tmp/f", kernel::kOCreat | kernel::kORdwr);
  const std::uint8_t d[8] = {};
  client.pwriteAt(static_cast<int>(fd), std::as_bytes(std::span(d)), 0);
  EXPECT_EQ(client.lseek(static_cast<int>(fd), -3, kernel::kSeekEnd), 5);
  EXPECT_EQ(client.lseek(static_cast<int>(fd), 2, kernel::kSeekCur), 7);
  EXPECT_EQ(client.lseek(static_cast<int>(fd), -100, kernel::kSeekSet),
            -kernel::kEINVAL);
}

TEST_F(VfsClientTest, CwdAffectsRelativePaths) {
  EXPECT_EQ(client.chdir("/tmp"), 0);
  const auto fd = client.open("x", kernel::kOCreat);
  ASSERT_GE(fd, 3);
  EXPECT_TRUE(root->exists("/tmp/x"));
  EXPECT_EQ(client.chdir("/tmp/x"), -kernel::kENOTDIR);
  EXPECT_EQ(client.chdir("/nope"), -kernel::kENOENT);
}

TEST_F(VfsClientTest, DupSharesBackendState) {
  const auto fd = client.open("/tmp/f", kernel::kOCreat | kernel::kORdwr);
  const auto fd2 = client.dup(static_cast<int>(fd));
  ASSERT_GT(fd2, fd);
  EXPECT_EQ(client.close(static_cast<int>(fd)), 0);
  const std::uint8_t d[] = {1};
  EXPECT_EQ(client.pwriteAt(static_cast<int>(fd2),
                            std::as_bytes(std::span(d)), 0),
            1);
  client.close(static_cast<int>(fd2));
}

TEST_F(VfsClientTest, BadFdErrors) {
  std::uint8_t buf[1];
  EXPECT_EQ(client.preadAt(99, std::as_writable_bytes(std::span(buf)), 0),
            -kernel::kEBADF);
  EXPECT_EQ(client.close(99), -kernel::kEBADF);
}

TEST_F(VfsClientTest, MountPrefixesResolveLongestFirst) {
  auto nfs = std::make_shared<NfsSim>();
  vfs.mount("/nfs", nfs);
  const auto fd = client.open("/nfs/data", kernel::kOCreat);
  ASSERT_GE(fd, 3);
  EXPECT_TRUE(nfs->storage().exists("/data"));
  EXPECT_FALSE(root->exists("/nfs/data"));
}

TEST(NfsSim, LatencyExceedsRamFsAndJitters) {
  sim::Engine eng;
  NfsSim nfs;
  RamFs ram;
  const auto l1 = nfs.opLatency(FsOpKind::kRead, 4096, 0);
  const auto l2 = nfs.opLatency(FsOpKind::kRead, 4096, 0);
  EXPECT_GT(l1, ram.opLatency(FsOpKind::kRead, 4096, 0) * 10);
  EXPECT_NE(l1, l2);  // jittered (deterministically seeded)
}

// ---------------- wire protocol ----------------

TEST(Protocol, RequestRoundTrips) {
  FsRequest req;
  req.seq = 42;
  req.srcNode = 3;
  req.pid = 7;
  req.tid = 9;
  req.op = FsOp::kWrite;
  req.a0 = 5;
  req.a1 = 100;
  req.path = "/some/path";
  req.payload = {std::byte{1}, std::byte{2}};
  const auto bytes = req.encode();
  const auto back = FsRequest::decode(bytes);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->seq, 42u);
  EXPECT_EQ(back->srcNode, 3);
  EXPECT_EQ(back->op, FsOp::kWrite);
  EXPECT_EQ(back->path, "/some/path");
  EXPECT_EQ(back->payload, req.payload);
}

TEST(Protocol, ReplyRoundTrips) {
  FsReply rep;
  rep.seq = 1;
  rep.srcNode = 2;
  rep.result = -kernel::kENOENT;
  rep.payload.resize(300, std::byte{7});
  const auto bytes = rep.encode();
  const auto back = FsReply::decode(bytes);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->result, -kernel::kENOENT);
  EXPECT_EQ(back->payload, rep.payload);
}

TEST(Protocol, TruncatedBuffersRejected) {
  FsRequest req;
  req.path = "/p";
  req.payload.resize(64);
  auto bytes = req.encode();
  for (const std::size_t cut : {std::size_t{0}, bytes.size() / 2,
                                bytes.size() - 1}) {
    EXPECT_FALSE(
        FsRequest::decode(std::span(bytes.data(), cut)).has_value());
  }
}

TEST(Protocol, RandomizedRoundTripProperty) {
  sim::Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    FsRequest req;
    req.seq = rng.next();
    req.srcNode = static_cast<std::int32_t>(rng.nextBelow(1000));
    req.pid = static_cast<std::uint32_t>(rng.nextBelow(100));
    req.tid = static_cast<std::uint32_t>(rng.nextBelow(100));
    req.op = static_cast<FsOp>(rng.nextBelow(11));
    req.a0 = rng.next();
    req.a1 = rng.next();
    req.a2 = rng.next();
    req.path.assign(rng.nextBelow(64), 'x');
    req.payload.resize(rng.nextBelow(512));
    for (auto& b : req.payload) {
      b = static_cast<std::byte>(rng.next() & 0xFF);
    }
    const auto back = FsRequest::decode(req.encode());
    ASSERT_TRUE(back);
    EXPECT_EQ(back->seq, req.seq);
    EXPECT_EQ(back->op, req.op);
    EXPECT_EQ(back->path, req.path);
    EXPECT_EQ(back->payload, req.payload);
  }
}

// ---------------- end-to-end function shipping ----------------

std::int64_t sys(kernel::Sys s) { return static_cast<std::int64_t>(s); }

/// Build "/tmp/t" at heapBase+256 and leave its address in r21.
void emitPath(vm::ProgramBuilder& b) {
  b.mov(21, 10);
  b.addi(21, 21, 256);
  const char p[] = "/tmp/t";
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < sizeof(p); ++i) {
    w |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  b.li(20, static_cast<std::int64_t>(w));
  b.store(21, 20, 0);
}

TEST(Fship, WriteLandsOnIoNodeWithRealBytes) {
  vm::ProgramBuilder b("t");
  emitPath(b);
  b.mov(1, 21);
  b.li(2, static_cast<std::int64_t>(kernel::kOCreat | kernel::kOWronly));
  b.syscall(sys(kernel::Sys::kOpen));
  b.sample(0);
  b.mov(16, 0);
  // Put a recognizable value at heapBase and write 8 bytes of it.
  b.li(17, 0x4141414141414141);
  b.mov(18, 10);
  b.store(18, 17, 0);
  b.mov(1, 16);
  b.mov(2, 10);
  b.li(3, 8);
  b.syscall(sys(kernel::Sys::kWrite));
  b.sample(0);
  b.mov(1, 16);
  b.syscall(sys(kernel::Sys::kClose));
  test::emitExit(b);
  std::unique_ptr<rt::Cluster> cluster;
  auto r = runProgram({}, std::move(b).build(), &cluster);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.samples.size(), 2u);
  EXPECT_GE(static_cast<std::int64_t>(r.samples[0]), 3);
  EXPECT_EQ(r.samples[1], 8u);
  const auto contents = cluster->ioRootFs(0).fileContents("/tmp/t");
  ASSERT_EQ(contents.size(), 8u);
  EXPECT_EQ(contents[0], std::byte{0x41});
}

TEST(Fship, ReadBringsRemoteBytesIntoUserMemory) {
  std::unique_ptr<rt::Cluster> cluster;
  vm::ProgramBuilder b("t");
  emitPath(b);
  b.mov(1, 21);
  b.li(2, 0);
  b.syscall(sys(kernel::Sys::kOpen));
  b.mov(16, 0);
  b.mov(1, 16);
  b.mov(2, 10);
  b.addi(2, 2, 2048);  // read target
  b.li(3, 8);
  b.syscall(sys(kernel::Sys::kRead));
  b.sample(0);          // byte count
  b.mov(19, 10);
  b.load(20, 19, 2048);
  b.sample(20);         // the value itself
  test::emitExit(b);

  rt::ClusterConfig cfg;
  auto preload = std::make_unique<rt::Cluster>(cfg);
  ASSERT_TRUE(preload->bootAll());
  // Stage the file on the I/O node before the job runs.
  std::vector<std::byte> contents(8);
  const std::uint64_t v = 0xBEEF;
  std::memcpy(contents.data(), &v, 8);
  preload->ioRootFs(0).putFile("/tmp/t", contents);
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("t", std::move(b).build());
  std::vector<std::uint64_t> samples;
  preload->attachSamples(0, 0, &samples);
  ASSERT_TRUE(preload->loadJob(job));
  ASSERT_TRUE(preload->run());
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0], 8u);
  EXPECT_EQ(samples[1], 0xBEEFu);
}

TEST(Fship, ErrorCodesComeBackFromLinux) {
  vm::ProgramBuilder b("t");
  emitPath(b);
  b.mov(1, 21);
  b.li(2, 0);  // no O_CREAT, file missing
  b.syscall(sys(kernel::Sys::kOpen));
  b.sample(0);
  test::emitExit(b);
  auto r = runProgram({}, std::move(b).build());
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(static_cast<std::int64_t>(r.samples[0]), -kernel::kENOENT);
}

TEST(Fship, IoProxyMirrorsCwd) {
  vm::ProgramBuilder b("t");
  // chdir("/tmp") then open a relative file.
  b.mov(21, 10);
  b.addi(21, 21, 256);
  const char p1[] = "/tmp";
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < sizeof(p1); ++i) {
    w |= static_cast<std::uint64_t>(static_cast<unsigned char>(p1[i]))
         << (8 * i);
  }
  b.li(20, static_cast<std::int64_t>(w));
  b.store(21, 20, 0);
  b.mov(1, 21);
  b.syscall(sys(kernel::Sys::kChdir));
  b.sample(0);
  // open "rel"
  const char p2[] = "rel";
  w = 0;
  for (std::size_t i = 0; i < sizeof(p2); ++i) {
    w |= static_cast<std::uint64_t>(static_cast<unsigned char>(p2[i]))
         << (8 * i);
  }
  b.li(20, static_cast<std::int64_t>(w));
  b.store(21, 20, 0);
  b.mov(1, 21);
  b.li(2, static_cast<std::int64_t>(kernel::kOCreat));
  b.syscall(sys(kernel::Sys::kOpen));
  b.sample(0);
  test::emitExit(b);
  std::unique_ptr<rt::Cluster> cluster;
  auto r = runProgram({}, std::move(b).build(), &cluster);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.samples.size(), 2u);
  EXPECT_EQ(r.samples[0], 0u);
  EXPECT_GE(static_cast<std::int64_t>(r.samples[1]), 3);
  EXPECT_TRUE(cluster->ioRootFs(0).exists("/tmp/rel"));
}

TEST(Fship, ConsoleWritesStayLocal) {
  vm::ProgramBuilder b("t");
  b.li(16, 0x0A696821);  // "!hi\n"
  b.mov(17, 10);
  b.store(17, 16, 0);
  b.li(1, 1);  // stdout
  b.mov(2, 10);
  b.li(3, 4);
  b.syscall(sys(kernel::Sys::kWrite));
  b.sample(0);
  test::emitExit(b);
  std::unique_ptr<rt::Cluster> cluster;
  auto r = runProgram({}, std::move(b).build(), &cluster);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.samples[0], 4u);
  EXPECT_EQ(cluster->consoleOf(0), "!hi\n");
  EXPECT_EQ(cluster->ciod(0).stats().requests, 0u);  // never shipped
}

}  // namespace
}  // namespace bg::io
