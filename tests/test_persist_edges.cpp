// PersistRegistry misuse: pool exhaustion, uid mismatch on reopen,
// oversized reopen, page rounding, and the address-stability contract
// (paper §IV-D) that the service-node checkpoint store leans on.
// Plus the persistence version/corruption edges the checkpoint planes
// add: an SvcCheckpoint header of another layout version is rejected
// (cold start), and torn application checkpoint images are rejected by
// the seal with a scratch fallback.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cluster_test_util.hpp"
#include "cnk/ckpt_image.hpp"
#include "cnk/persist.hpp"
#include "hw/phys_mem.hpp"
#include "kernel/syscalls.hpp"
#include "svc/checkpoint.hpp"
#include "svc/failover.hpp"

namespace bg {
namespace {

constexpr std::uint64_t kMB = 1ULL << 20;

cnk::PersistRegistry makePool(std::uint64_t bytes) {
  cnk::PersistRegistry reg;
  reg.configurePool(0, bytes, 0x5000'0000ULL);
  return reg;
}

TEST(PersistEdges, PoolExhaustionRefusesCreateButKeepsExisting) {
  cnk::PersistRegistry reg = makePool(4 * kMB);
  ASSERT_TRUE(reg.openOrCreate("a", 2 * kMB, 1).has_value());
  ASSERT_TRUE(reg.openOrCreate("b", 2 * kMB, 1).has_value());
  EXPECT_EQ(reg.poolBytesUsed(), 4 * kMB);

  // Pool is full: a new region of any size must be refused...
  EXPECT_FALSE(reg.openOrCreate("c", 1, 1).has_value());
  EXPECT_EQ(reg.regionCount(), 2u);
  // ...while reopening the existing ones still works.
  EXPECT_TRUE(reg.openOrCreate("a", 2 * kMB, 1).has_value());
  EXPECT_TRUE(reg.openOrCreate("b", kMB, 1).has_value());
}

TEST(PersistEdges, ReopenWithWrongUidIsRefused) {
  cnk::PersistRegistry reg = makePool(4 * kMB);
  ASSERT_TRUE(reg.openOrCreate("secrets", kMB, 7).has_value());
  EXPECT_FALSE(reg.openOrCreate("secrets", kMB, 8).has_value());
  // The refusal changes nothing: the owner still gets in.
  const auto again = reg.openOrCreate("secrets", kMB, 7);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->ownerUid, 7u);
  // remove() enforces the same privilege.
  EXPECT_FALSE(reg.remove("secrets", 8));
  EXPECT_TRUE(reg.remove("secrets", 7));
}

TEST(PersistEdges, OversizedReopenIsRefused) {
  cnk::PersistRegistry reg = makePool(8 * kMB);
  const auto r = reg.openOrCreate("grow", 100, 1);  // rounds to 1MB
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size, kMB) << "1MB-page rounding";
  // Anything up to the mapped (rounded) size reopens; beyond refuses.
  EXPECT_TRUE(reg.openOrCreate("grow", kMB, 1).has_value());
  EXPECT_FALSE(reg.openOrCreate("grow", kMB + 1, 1).has_value());
  // A refused reopen must not have grown the region.
  EXPECT_EQ(reg.find("grow")->size, kMB);
}

TEST(PersistEdges, AddressesStableAcrossJobBoundaries) {
  // Two regions created by "job 1"; reopened by "job 2" they must map
  // at the same virtual addresses with DRAM contents intact — that is
  // the whole point of persistent memory, and what makes the service
  // node's checkpoint survive its own restarts.
  hw::PhysMem mem(8 * kMB);
  cnk::PersistRegistry reg = makePool(8 * kMB);
  const auto a1 = reg.openOrCreate("list", kMB, 1);
  const auto b1 = reg.openOrCreate("index", kMB, 1);
  ASSERT_TRUE(a1 && b1);
  EXPECT_NE(a1->vbase, b1->vbase);
  mem.write64(a1->pbase, 0x1122334455667788ULL);
  mem.write64(b1->pbase, 0x99AABBCCDDEEFF00ULL);

  // "Job 2": same names, smaller sizes are fine.
  const auto a2 = reg.openOrCreate("list", 4096, 1);
  const auto b2 = reg.openOrCreate("index", kMB, 1);
  ASSERT_TRUE(a2 && b2);
  EXPECT_EQ(a2->vbase, a1->vbase);
  EXPECT_EQ(a2->pbase, a1->pbase);
  EXPECT_EQ(b2->vbase, b1->vbase);
  EXPECT_EQ(mem.read64(a2->pbase), 0x1122334455667788ULL);
  EXPECT_EQ(mem.read64(b2->pbase), 0x99AABBCCDDEEFF00ULL);
}

TEST(PersistEdges, RemovedNameReusesNoPoolSpace) {
  // Pool space is never reclaimed (regions live for the partition's
  // lifetime); removing a name only frees the name.
  cnk::PersistRegistry reg = makePool(2 * kMB);
  ASSERT_TRUE(reg.openOrCreate("tmp", kMB, 1).has_value());
  ASSERT_TRUE(reg.remove("tmp", 1));
  EXPECT_EQ(reg.poolBytesUsed(), kMB);
  ASSERT_TRUE(reg.openOrCreate("tmp2", kMB, 1).has_value());
  // Pool now exhausted even though only one region is live.
  EXPECT_FALSE(reg.openOrCreate("tmp3", kMB, 1).has_value());
}

// ---------------------------------------------------------------------
// SvcCheckpoint layout versions
// ---------------------------------------------------------------------

svc::SvcCheckpoint sampleCheckpoint() {
  svc::SvcCheckpoint ck;
  ck.takenAt = 123'456;
  ck.scheduleHash = 0xFEEDFACE;
  ck.nextId = 9;
  svc::SvcCheckpoint::JobEntry e;
  e.rec.id = 7;
  e.rec.desc.name = "upgradee";
  e.rec.state = svc::JobState::kQueued;
  e.rec.attempts = 2;
  e.rec.preemptCount = 1;
  e.rec.ckptSeq = 5;
  e.exeName = "upgradee.elf";
  ck.jobs.push_back(std::move(e));
  ck.queue.push_back(7);
  return ck;
}

TEST(PersistEdges, SvcCheckpointV5RoundTripsCkptFields) {
  svc::SvcCheckpoint src = sampleCheckpoint();
  src.counters[svc::SvcCounter::kCkptRequests] = 4;
  src.counters[svc::SvcCounter::kCkptCommits] = 3;
  src.counters[svc::SvcCounter::kCkptFallbacks] = 1;
  src.counters[svc::SvcCounter::kCkptResumes] = 2;
  sim::ByteWriter w;
  src.encode(w);
  sim::ByteReader r(w.bytes());
  svc::SvcCheckpoint dec;
  ASSERT_TRUE(dec.decode(r));
  EXPECT_EQ(dec.counters[svc::SvcCounter::kCkptRequests], 4u);
  EXPECT_EQ(dec.counters[svc::SvcCounter::kCkptCommits], 3u);
  EXPECT_EQ(dec.counters[svc::SvcCounter::kCkptFallbacks], 1u);
  EXPECT_EQ(dec.counters[svc::SvcCounter::kCkptResumes], 2u);
  ASSERT_EQ(dec.jobs.size(), 1u);
  EXPECT_EQ(dec.jobs[0].rec.ckptSeq, 5u);
}

TEST(PersistEdges, SvcCheckpointV6RoundTripsMigrateFields) {
  svc::SvcCheckpoint src = sampleCheckpoint();
  src.counters[svc::SvcCounter::kMigrateRequests] = 4;
  src.counters[svc::SvcCounter::kMigrateCommits] = 3;
  src.counters[svc::SvcCounter::kMigrateFallbacks] = 1;
  src.counters[svc::SvcCounter::kMigrations] = 3;
  src.counters[svc::SvcCounter::kDegradedJobs] = 2;
  src.counters[svc::SvcCounter::kMigrateCyclesSaved] = 987'654;
  src.sickNodes = {1, 6};
  sim::ByteWriter w;
  src.encode(w);
  sim::ByteReader r(w.bytes());
  svc::SvcCheckpoint dec;
  ASSERT_TRUE(dec.decode(r));
  EXPECT_EQ(dec.counters[svc::SvcCounter::kMigrateRequests], 4u);
  EXPECT_EQ(dec.counters[svc::SvcCounter::kMigrateCommits], 3u);
  EXPECT_EQ(dec.counters[svc::SvcCounter::kMigrateFallbacks], 1u);
  EXPECT_EQ(dec.counters[svc::SvcCounter::kMigrations], 3u);
  EXPECT_EQ(dec.counters[svc::SvcCounter::kDegradedJobs], 2u);
  EXPECT_EQ(dec.counters[svc::SvcCounter::kMigrateCyclesSaved], 987'654u);
  EXPECT_EQ(dec.sickNodes, (std::vector<int>{1, 6}));
}

TEST(PersistEdges, SvcCheckpointRoundTripsEveryCounter) {
  // Distinct values catch a counter written or read out of order.
  svc::SvcCheckpoint src = sampleCheckpoint();
  for (std::size_t i = 0; i < svc::kNumSvcCounters; ++i) {
    src.counters.values[i] = 1'000 * (i + 1) + i;
  }
  src.sickNodes = {1, 6};
  sim::ByteWriter w;
  src.encode(w);
  sim::ByteReader r(w.bytes());
  svc::SvcCheckpoint dec;
  ASSERT_TRUE(dec.decode(r));
  EXPECT_EQ(dec.counters.values, src.counters.values);
  EXPECT_EQ(dec.sickNodes, (std::vector<int>{1, 6}));
  EXPECT_EQ(dec.nextId, 9u);
  ASSERT_EQ(dec.jobs.size(), 1u);
  EXPECT_EQ(dec.jobs[0].rec.ckptSeq, 5u);
  EXPECT_EQ(dec.jobs[0].rec.preemptCount, 1);
  EXPECT_EQ(dec.queue, (std::deque<svc::JobId>{7}));
  // In the image they follow the version, takenAt, scheduleHash and
  // nextId, in SvcCounter order.
  sim::ByteReader raw(w.bytes());
  raw.u32();
  raw.u64();
  raw.u64();
  raw.u32();
  for (std::size_t i = 0; i < svc::kNumSvcCounters; ++i) {
    EXPECT_EQ(raw.u64(), src.counters.values[i]) << "counter " << i;
  }
}

TEST(PersistEdges, SvcCheckpointOldVersionHeaderForcesColdStart) {
  // Images live only in simulated persistent memory inside one
  // process, so there is no upgrade path: a header of any other layout
  // version (here v5, the pre-migration layout) fails decode...
  sim::ByteWriter w;
  sampleCheckpoint().encode(w);
  std::vector<std::byte> image = std::move(w).take();
  image[0] = std::byte{5};
  sim::ByteReader r(image);
  svc::SvcCheckpoint dec;
  EXPECT_FALSE(dec.decode(r));

  // ...and a service host whose store holds such an image cold-starts.
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster);
  svc::JobDesc jd;
  jd.name = "one";
  jd.nodes = 1;
  vm::ProgramBuilder b("one");
  b.compute(20'000);
  b.halt(0);
  jd.exe = kernel::ElfImage::makeExecutable("one", std::move(b).build());
  host.submit(jd);
  ASSERT_TRUE(host.runUntilDrained(50'000'000));
  host.crash();
  std::optional<std::vector<std::byte>> live = host.store().load();
  ASSERT_TRUE(live.has_value());
  ASSERT_EQ((*live)[svc::kImageTableBytes], std::byte{6});
  (*live)[svc::kImageTableBytes] = std::byte{5};
  ASSERT_TRUE(host.store().save(*live, cluster.engine().now()));
  EXPECT_FALSE(host.restart()) << "an old-version image restored warm";
  EXPECT_EQ(host.coldStarts(), 1u);
}

// ---------------------------------------------------------------------
// Torn application checkpoint images
// ---------------------------------------------------------------------

std::int64_t sysNum(kernel::Sys s) { return static_cast<std::int64_t>(s); }

/// Same shape as test_ckpt's oracle app: ckpt_save between two compute
/// phases, sample[0] = saved(0)/resumed(1), sample[1] = accumulator.
vm::Program tornApp() {
  vm::ProgramBuilder b("torn-app");
  b.li(20, 0);
  const auto top1 = b.loopBegin(21, 6);
  b.compute(2'000);
  b.addi(20, 20, 7);
  b.loopEnd(21, top1);
  b.syscall(sysNum(kernel::Sys::kCkptSave));
  b.sample(0);
  const auto top2 = b.loopBegin(21, 6);
  b.compute(2'000);
  b.addi(20, 20, 3);
  b.loopEnd(21, top2);
  b.sample(20);
  test::emitExit(b);
  return std::move(b).build();
}

/// Commit an image, mangle it with `mangle`, then restore-reload and
/// expect a seal rejection followed by a scratch run with the full
/// answer — corruption must never wedge or half-apply.
void runTornImageCase(
    const std::function<std::vector<std::byte>(std::vector<std::byte>)>&
        mangle) {
  std::unique_ptr<rt::Cluster> cluster;
  auto r = test::runProgram({}, tornApp(), &cluster);
  ASSERT_TRUE(r.completed);
  cnk::CnkKernel* k = cluster->cnkOn(0);
  ASSERT_EQ(k->ckptSeqCommitted(), 1u);
  const std::uint64_t fullAnswer = r.samples.at(1);

  io::RamFs& fs = cluster->ioRootFs(0);
  const std::string path = cnk::ckpt::imagePath(0, 0);
  fs.putFile(path, mangle(fs.fileContents(path)));

  k->unloadJob();
  kernel::JobSpec job;
  job.exe = kernel::ElfImage::makeExecutable("test", tornApp());
  job.restore = true;
  std::vector<std::uint64_t> samples;
  cluster->attachSamples(0, 0, &samples);
  ASSERT_TRUE(cluster->loadJob(job));
  ASSERT_TRUE(cluster->run());
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0], 0u) << "corrupt image must scratch-start";
  EXPECT_EQ(samples[1], fullAnswer);
  EXPECT_EQ(k->ckptRestores(), 0u);
  EXPECT_GE(k->ckptFailures(), 1u);
  // The scratch run's own ckpt_save re-committed a fresh valid image.
  EXPECT_EQ(k->ckptSeqCommitted(), 1u);
}

TEST(PersistEdges, TornCkptImageFailsSealAndFallsBackToScratch) {
  runTornImageCase([](std::vector<std::byte> bytes) {
    bytes.at(bytes.size() / 2) ^= std::byte{0x40};
    return bytes;
  });
}

TEST(PersistEdges, TruncatedCkptImageFailsSealAndFallsBackToScratch) {
  runTornImageCase([](std::vector<std::byte> bytes) {
    bytes.resize(bytes.size() / 2);
    return bytes;
  });
}

}  // namespace
}  // namespace bg
