// Front-door RPC subsystem tests: protocol framing, admission
// control, batching, exactly-once duplicate suppression, cancel/query
// paths, warm-restart recovery of the in-flight table, and the
// determinism witnesses (same-seed identity; duplicate-injected runs
// schedule-identical to clean runs).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "frontdoor/frontdoor.hpp"
#include "frontdoor/swarm.hpp"
#include "runtime/app.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace {

using namespace bg;

std::shared_ptr<kernel::ElfImage> fdWorkImage() {
  vm::ProgramBuilder b("fdwork");
  const auto top = b.loopBegin(16, 12);
  b.compute(10'000);
  b.loopEnd(16, top);
  b.halt(0);
  return kernel::ElfImage::makeExecutable("fdwork", std::move(b).build());
}

// ---------------------------------------------------------------------
// Protocol layer
// ---------------------------------------------------------------------

TEST(FdProtocol, RequestRoundTripAllTypes) {
  fd::Request q;
  q.type = fd::MsgType::kSubmit;
  q.clientId = 77;
  q.seq = 12345;
  q.retransmit = true;
  q.jobName = "alpha";
  q.kernel = 1;
  q.nodes = 3;
  q.processes = 2;
  q.estCycles = 900'000;
  q.maxRetries = 4;
  q.exeName = "fdwork";
  const auto back = fd::Request::decode(q.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, fd::kProtocolVersion);
  EXPECT_EQ(back->type, fd::MsgType::kSubmit);
  EXPECT_EQ(back->clientId, 77u);
  EXPECT_EQ(back->seq, 12345u);
  EXPECT_TRUE(back->retransmit);
  EXPECT_EQ(back->jobName, "alpha");
  EXPECT_EQ(back->kernel, 1u);
  EXPECT_EQ(back->nodes, 3u);
  EXPECT_EQ(back->processes, 2u);
  EXPECT_EQ(back->estCycles, 900'000u);
  EXPECT_EQ(back->maxRetries, 4u);
  EXPECT_EQ(back->exeName, "fdwork");

  for (const fd::MsgType t :
       {fd::MsgType::kCancel, fd::MsgType::kQuery, fd::MsgType::kStats}) {
    fd::Request r;
    r.type = t;
    r.clientId = 9;
    r.seq = 2;
    r.ticket = 31337;
    const auto rb = fd::Request::decode(r.encode());
    ASSERT_TRUE(rb.has_value()) << fd::msgTypeName(t);
    EXPECT_EQ(rb->type, t);
    if (t != fd::MsgType::kStats) {
      EXPECT_EQ(rb->ticket, 31337u);
    }
  }
}

TEST(FdProtocol, ResponseRoundTrip) {
  fd::Response p;
  p.type = fd::MsgType::kStatsResp;
  p.clientId = 5;
  p.seq = 8;
  p.status = fd::Status::kOk;
  p.accepted = 100;
  p.rejected = 7;
  p.duplicates = 3;
  p.queueDepth = 42;
  p.batchedNow = 11;
  const auto back = fd::Response::decode(p.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, fd::MsgType::kStatsResp);
  EXPECT_EQ(back->status, fd::Status::kOk);
  EXPECT_EQ(back->accepted, 100u);
  EXPECT_EQ(back->queueDepth, 42u);
}

TEST(FdProtocol, CorruptionRejectedEverywhere) {
  fd::Request q;
  q.type = fd::MsgType::kSubmit;
  q.clientId = 1;
  q.seq = 1;
  q.jobName = "j";
  q.exeName = "e";
  const std::vector<std::byte> frame = q.encode();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::byte> bad = frame;
    bad[i] ^= std::byte{0x10};
    // The length prefix, the checksum, or a field-validity check must
    // catch the damage — a corrupt frame never decodes.
    EXPECT_FALSE(fd::Request::decode(bad).has_value()) << "byte " << i;
  }
}

TEST(FdProtocol, VersionMismatchStillYieldsHeader) {
  fd::Request q;
  q.type = fd::MsgType::kSubmit;
  q.version = fd::kProtocolVersion + 7;
  q.clientId = 123;
  q.seq = 456;
  q.jobName = "ignored";
  q.exeName = "ignored";
  const auto back = fd::Request::decode(q.encode());
  // The server needs the header to answer kBadVersion to the right
  // client/seq even though it cannot trust the payload.
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, fd::kProtocolVersion + 7);
  EXPECT_EQ(back->clientId, 123u);
  EXPECT_EQ(back->seq, 456u);
}

// ---------------------------------------------------------------------
// Direct-packet rig: one hand-rolled client, no swarm
// ---------------------------------------------------------------------

struct DirectRig {
  rt::Cluster cluster;
  svc::ServiceHost host;
  hw::CollectiveNet net;
  fd::FrontDoor door;
  std::vector<fd::Response> responses;

  explicit DirectRig(fd::FrontDoorConfig fcfg = {})
      : cluster([] {
          rt::ClusterConfig c;
          c.computeNodes = 2;
          c.seed = 7;
          return c;
        }()),
        host(cluster, [] {
          svc::ServiceNodeConfig s;
          s.checkpointEveryPumps = 0;
          return s;
        }()),
        net(cluster.engine(), hw::CollectiveConfig{}),
        door(cluster.engine(), host, net, fcfg) {
    host.store().registerImage(fdWorkImage());
    door.attach();
    net.setHandler(5, [this](hw::CollPacket&& p) {
      const auto r = fd::Response::decode(p.payload);
      if (r) responses.push_back(*r);
    });
  }

  void send(const fd::Request& q) {
    hw::CollPacket pkt;
    pkt.srcNode = 5;
    pkt.dstNode = 0;
    pkt.channel = fd::kChanFdRequest;
    pkt.payload = q.encode();
    net.send(std::move(pkt));
  }

  void settle(sim::Cycle cycles = 2'000'000) {
    cluster.engine().runUntil(cluster.engine().now() + cycles);
  }
};

TEST(FdReplayCache, ExactlyOncePolicy) {
  DirectRig rig;
  fd::Request q;
  q.type = fd::MsgType::kSubmit;
  q.clientId = 7;
  q.seq = 1;
  q.jobName = "once";
  q.exeName = "fdwork";
  q.estCycles = 200'000;

  rig.send(q);
  rig.settle();
  ASSERT_EQ(rig.responses.size(), 1u);
  EXPECT_EQ(rig.responses[0].status, fd::Status::kOk);
  const std::uint64_t ticket = rig.responses[0].ticket;
  EXPECT_NE(ticket, 0u);
  EXPECT_EQ(rig.door.stats().accepted, 1u);

  // A wire-level duplicate (flag clear): recognized and dropped with
  // no second response — a resend would perturb every other client.
  rig.send(q);
  rig.settle();
  EXPECT_EQ(rig.responses.size(), 1u);
  EXPECT_EQ(rig.door.stats().dupSilent, 1u);
  EXPECT_EQ(rig.door.stats().accepted, 1u);

  // A client retransmit (flag set): the cached outcome is replayed,
  // with the SAME ticket — the submission is not re-admitted.
  fd::Request rt = q;
  rt.retransmit = true;
  rig.send(rt);
  rig.settle();
  ASSERT_EQ(rig.responses.size(), 2u);
  EXPECT_EQ(rig.responses[1].status, fd::Status::kOk);
  EXPECT_EQ(rig.responses[1].ticket, ticket);
  EXPECT_EQ(rig.door.stats().replays, 1u);
  EXPECT_EQ(rig.door.stats().accepted, 1u);
}

TEST(FdReplayCache, BadVersionAndBadRequestAnswered) {
  DirectRig rig;
  fd::Request q;
  q.type = fd::MsgType::kSubmit;
  q.version = 99;
  q.clientId = 1;
  q.seq = 1;
  rig.send(q);
  rig.settle();
  ASSERT_EQ(rig.responses.size(), 1u);
  EXPECT_EQ(rig.responses[0].status, fd::Status::kBadVersion);

  fd::Request miss;
  miss.type = fd::MsgType::kSubmit;
  miss.clientId = 1;
  miss.seq = 2;
  miss.jobName = "ghost";
  miss.exeName = "no-such-binary";
  rig.send(miss);
  rig.settle();
  ASSERT_EQ(rig.responses.size(), 2u);
  EXPECT_EQ(rig.responses[1].status, fd::Status::kBadRequest);

  fd::Request cancel;
  cancel.type = fd::MsgType::kCancel;
  cancel.clientId = 1;
  cancel.seq = 3;
  cancel.ticket = 424242;
  rig.send(cancel);
  rig.settle();
  ASSERT_EQ(rig.responses.size(), 3u);
  EXPECT_EQ(rig.responses[2].status, fd::Status::kUnknownTicket);
}

// ---------------------------------------------------------------------
// Swarm scenarios
// ---------------------------------------------------------------------

struct ScenOpts {
  std::uint32_t clients = 60;
  std::uint32_t submits = 2;
  std::uint64_t seed = 42;
  std::uint32_t bursts = 2;
  double dropRate = 0;
  double corruptRate = 0;
  double delayRate = 0;
  double dupRate = 0;
  double forcedDups = 0;
  double cancelRate = 0;
  double queryRate = 0;
  std::size_t maxQueue = 100'000;  // effectively unbounded
  std::size_t maxBatch = 64;
  int crashes = 0;
  sim::Cycle restartDelay = 250'000;
  bool persist = false;
  std::uint32_t checkpointEveryPumps = 0;
};

struct ScenResult {
  bool drained = false;
  fd::FrontDoorStats door;
  fd::Swarm::Totals totals;
  svc::SvcMetrics metrics;
  std::uint64_t fdDigest = 0;
  std::uint64_t rasClientRejected = 0;
  std::uint64_t rasFdRestart = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ticketJobIds;
};

ScenResult runScenario(const ScenOpts& o) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.seed = o.seed;
  cfg.nodeKernels = {rt::KernelKind::kCnk, rt::KernelKind::kCnk,
                     rt::KernelKind::kCnk, rt::KernelKind::kFwk};
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig scfg;
  scfg.checkpointEveryPumps = o.checkpointEveryPumps;
  svc::ServiceHost host(cluster, scfg);
  host.store().registerImage(fdWorkImage());

  hw::CollectiveNet fdnet(cluster.engine(), hw::CollectiveConfig{});
  hw::LinkFaultModel faults(o.seed, "fd.link");
  hw::LinkFaultRates rates;
  rates.dropRate = o.dropRate;
  rates.corruptRate = o.corruptRate;
  rates.delayRate = o.delayRate;
  rates.duplicateRate = o.dupRate;
  faults.setDefaultRates(rates);
  fdnet.setFaultModel(&faults);

  fd::FrontDoorConfig fcfg;
  fcfg.maxQueueDepth = o.maxQueue;
  fcfg.maxBatch = o.maxBatch;
  fcfg.persist = o.persist;
  fd::FrontDoor door(cluster.engine(), host, fdnet, fcfg);
  door.attach();

  fd::SwarmParams sp;
  sp.clients = o.clients;
  sp.submitsPerClient = o.submits;
  sp.seed = o.seed;
  sp.bursts = o.bursts;
  sp.estCycles = 150'000;
  sp.forcedDupRate = o.forcedDups;
  sp.cancelRate = o.cancelRate;
  sp.queryRate = o.queryRate;
  fd::Swarm swarm(cluster.engine(), fdnet, sp);

  sim::Rng crng(o.seed, "fd.crash");
  for (int c = 0; c < o.crashes; ++c) {
    const sim::Cycle at = 200'000 + crng.nextBelow(swarm.horizonCycles());
    host.scheduleCrashRestart(at, o.restartDelay);
  }

  host.start();
  swarm.start();

  ScenResult r;
  r.drained = cluster.engine().runWhile(
      [&] {
        return swarm.quiescent() && door.batchedCount() == 0 &&
               host.drained();
      },
      2'000'000'000ULL);
  r.door = door.stats();
  r.totals = swarm.totals();
  r.metrics = host.metrics();
  r.fdDigest = door.digest();
  r.rasClientRejected = host.node().ras().countByCode(
      kernel::RasEvent::Code::kClientRejected);
  r.rasFdRestart = host.node().ras().countByCode(
      kernel::RasEvent::Code::kFrontDoorRestart);
  r.ticketJobIds = door.ticketJobIds();
  return r;
}

TEST(Frontdoor, CleanSwarmEveryAckRunsExactlyOnce) {
  ScenOpts o;
  const ScenResult r = runScenario(o);
  ASSERT_TRUE(r.drained);
  const std::uint64_t n =
      static_cast<std::uint64_t>(o.clients) * o.submits;
  EXPECT_EQ(r.totals.submitsSent, n);
  EXPECT_EQ(r.totals.acked, n);
  EXPECT_EQ(r.totals.abandoned, 0u);
  EXPECT_EQ(r.door.accepted, n);
  EXPECT_EQ(r.door.rejected, 0u);
  EXPECT_EQ(r.door.corrupt, 0u);
  EXPECT_EQ(r.door.flushedJobs, n);
  EXPECT_EQ(r.metrics.jobsSubmitted, n);
  EXPECT_EQ(r.metrics.jobsCompleted, n);
  // Batching amortizes: far fewer flushes than submissions.
  EXPECT_LT(r.door.flushes, n / 2);
}

TEST(Frontdoor, DuplicatesAndRetriesAreExactlyOnce) {
  ScenOpts clean;
  const ScenResult base = runScenario(clean);
  ASSERT_TRUE(base.drained);

  // Same seed, same arrivals — but half the submits are sent twice by
  // the client and the links additionally duplicate 20% of packets.
  ScenOpts dup = clean;
  dup.forcedDups = 0.5;
  dup.dupRate = 0.2;
  const ScenResult faulted = runScenario(dup);
  ASSERT_TRUE(faulted.drained);

  EXPECT_GT(faulted.door.dupSilent, 0u);
  // Exactly-once, proven at three layers: identical admission digest,
  // identical job count, identical scheduler event hash. The duplicate
  // storm left no trace on what actually ran.
  EXPECT_EQ(faulted.fdDigest, base.fdDigest);
  EXPECT_EQ(faulted.metrics.jobsSubmitted, base.metrics.jobsSubmitted);
  EXPECT_EQ(faulted.metrics.scheduleHash, base.metrics.scheduleHash);
}

TEST(Frontdoor, DropsRecoverThroughRetransmits) {
  ScenOpts o;
  o.dropRate = 0.12;
  const ScenResult r = runScenario(o);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.totals.retransmits, 0u);
  EXPECT_GT(r.totals.acked, 0u);
  // Whatever the wire did, the control plane ran exactly the accepted
  // set, once each.
  EXPECT_EQ(r.door.flushedJobs, r.door.accepted);
  EXPECT_EQ(r.metrics.jobsSubmitted, r.door.flushedJobs);
  // An accepted-but-unacked submit still runs; acks can only be lost
  // on the response path, never manufactured.
  EXPECT_LE(r.totals.acked, r.door.accepted);
}

TEST(Frontdoor, CorruptFramesNeverDecode) {
  ScenOpts o;
  o.corruptRate = 0.1;
  const ScenResult r = runScenario(o);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.door.corrupt + r.totals.badResponses, 0u);
  // Corruption is detected (dropped + retransmitted), not absorbed.
  EXPECT_EQ(r.door.flushedJobs, r.door.accepted);
  EXPECT_EQ(r.metrics.jobsSubmitted, r.door.flushedJobs);
}

TEST(Frontdoor, AdmissionControlBouncesOverload) {
  ScenOpts o;
  o.clients = 150;
  o.submits = 2;
  o.bursts = 1;  // one dense burst to force overload
  o.maxQueue = 8;
  const ScenResult r = runScenario(o);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.door.rejected, 0u);
  EXPECT_GT(r.totals.busyRetries, 0u);
  // Every rejection is a typed SERVER_BUSY the client saw (or will
  // retry past), and every one left a RAS record for the operator.
  EXPECT_EQ(r.rasClientRejected, r.door.rejected);
  // Backpressure bounds what the scheduler ever holds.
  EXPECT_LE(r.door.maxBatchSeen, o.maxQueue);
  EXPECT_EQ(r.door.flushedJobs, r.door.accepted);
}

TEST(Frontdoor, BatchSizeCapFlushesEarly) {
  ScenOpts o;
  o.clients = 120;
  o.submits = 2;
  o.bursts = 1;
  o.maxBatch = 16;
  const ScenResult r = runScenario(o);
  ASSERT_TRUE(r.drained);
  EXPECT_LE(r.door.maxBatchSeen, 16u);
  EXPECT_GE(r.door.flushes, (r.door.accepted + 15) / 16);
  EXPECT_EQ(r.door.flushedJobs, r.door.accepted);
}

TEST(Frontdoor, CancelUnwindsBatchedAndQueuedWork) {
  ScenOpts o;
  o.cancelRate = 1.0;  // every acked submit is followed by a cancel
  const ScenResult r = runScenario(o);
  ASSERT_TRUE(r.drained);
  // Each cancel lands in exactly one bucket.
  EXPECT_EQ(r.totals.cancelsAcked,
            r.door.cancelsBatched + r.door.cancelsQueued);
  EXPECT_EQ(r.totals.cancelsTooLate, r.door.cancelsTooLate);
  // A cancel caught pre-flush never reaches the scheduler at all.
  EXPECT_EQ(r.door.flushedJobs + r.door.cancelsBatched, r.door.accepted);
  // One caught in the queue becomes a cancelled job, not a run.
  EXPECT_EQ(r.metrics.jobsCancelled, r.door.cancelsQueued);
  EXPECT_EQ(r.metrics.jobsCompleted + r.metrics.jobsCancelled,
            r.metrics.jobsSubmitted);
}

TEST(Frontdoor, QueryReportsJobState) {
  ScenOpts o;
  o.queryRate = 1.0;
  const ScenResult r = runScenario(o);
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.totals.queriesDone, r.totals.acked);
  EXPECT_EQ(r.door.queries, r.totals.queriesDone);
}

TEST(Frontdoor, WarmRestartLosesNoAckedSubmission) {
  ScenOpts o;
  o.clients = 80;
  o.submits = 2;
  o.crashes = 2;
  o.persist = true;
  o.checkpointEveryPumps = 1;  // write-through
  const ScenResult r = runScenario(o);
  ASSERT_TRUE(r.drained);
  EXPECT_GE(r.door.restarts, 1u);
  EXPECT_EQ(r.rasFdRestart, r.door.restarts);

  // Every ticket a client holds maps to exactly one real scheduler
  // job — nothing acknowledged fell into the outage.
  std::set<std::uint64_t> ackedTickets(r.totals.tickets.begin(),
                                       r.totals.tickets.end());
  std::set<std::uint32_t> jobIds;
  std::size_t matched = 0;
  for (const auto& [ticket, jobId] : r.ticketJobIds) {
    if (ackedTickets.count(ticket) == 0) continue;
    ++matched;
    EXPECT_NE(jobId, 0u) << "ticket " << ticket << " never reached svc";
    EXPECT_TRUE(jobIds.insert(jobId).second)
        << "ticket " << ticket << " shares job " << jobId;
  }
  EXPECT_EQ(matched, ackedTickets.size());
  EXPECT_EQ(r.metrics.jobsCompleted, r.metrics.jobsSubmitted);
}

TEST(Frontdoor, SameSeedFaultSoupIsIdentical) {
  ScenOpts o;
  o.clients = 70;
  o.dropRate = 0.05;
  o.corruptRate = 0.03;
  o.delayRate = 0.1;
  o.dupRate = 0.05;
  o.forcedDups = 0.2;
  o.cancelRate = 0.1;
  o.queryRate = 0.1;
  const ScenResult a = runScenario(o);
  const ScenResult b = runScenario(o);
  ASSERT_TRUE(a.drained);
  ASSERT_TRUE(b.drained);
  EXPECT_EQ(a.fdDigest, b.fdDigest);
  EXPECT_EQ(a.metrics.scheduleHash, b.metrics.scheduleHash);
  EXPECT_EQ(a.totals.acked, b.totals.acked);
  EXPECT_EQ(a.totals.retransmits, b.totals.retransmits);

  ScenOpts other = o;
  other.seed = 43;
  const ScenResult c = runScenario(other);
  ASSERT_TRUE(c.drained);
  EXPECT_NE(c.fdDigest, a.fdDigest);
}

// An attached-but-idle front door must not perturb the control plane:
// the scheduler's hash over a plain job stream is byte-identical with
// and without the endpoint wired up.
TEST(Frontdoor, IdleFrontDoorIsScheduleNeutral) {
  auto runStream = [](bool withDoor) {
    rt::ClusterConfig cfg;
    cfg.computeNodes = 4;
    cfg.seed = 11;
    rt::Cluster cluster(cfg);
    svc::ServiceHost host(cluster, svc::ServiceNodeConfig{});
    host.store().registerImage(fdWorkImage());

    hw::CollectiveNet fdnet(cluster.engine(), hw::CollectiveConfig{});
    std::unique_ptr<fd::FrontDoor> door;
    if (withDoor) {
      door = std::make_unique<fd::FrontDoor>(cluster.engine(), host, fdnet,
                                             fd::FrontDoorConfig{});
      door->attach();
    }

    for (int i = 0; i < 6; ++i) {
      svc::JobDesc jd;
      jd.name = "direct" + std::to_string(i);
      jd.nodes = 1;
      jd.exe = host.store().image("fdwork");
      jd.estCycles = 200'000;
      cluster.engine().scheduleAt(10'000 * (i + 1),
                                  [&host, jd] { host.submit(jd); });
    }
    host.start();
    cluster.engine().runWhile([&] { return host.drained(); },
                              500'000'000ULL);
    return host.metrics().scheduleHash;
  };
  EXPECT_EQ(runStream(false), runStream(true));
}

// ---------------------------------------------------------------------
// Slow lane: multi-seed replay under the full fault soup (ctest -C
// slow; GTEST_SKIPs without FRONTDOOR_SLOW=1).
// ---------------------------------------------------------------------

TEST(FrontdoorSlow, MultiSeedFaultSoupReplay) {
  if (std::getenv("FRONTDOOR_SLOW") == nullptr) {
    GTEST_SKIP() << "set FRONTDOOR_SLOW=1 to run";
  }
  for (const std::uint64_t seed : {9ULL, 23ULL, 71ULL}) {
    ScenOpts o;
    o.clients = 200;
    o.submits = 2;
    o.seed = seed;
    o.dropRate = 0.06;
    o.corruptRate = 0.04;
    o.delayRate = 0.1;
    o.dupRate = 0.06;
    o.forcedDups = 0.25;
    o.cancelRate = 0.1;
    o.queryRate = 0.1;
    o.crashes = 2;
    o.persist = true;
    o.checkpointEveryPumps = 1;
    const ScenResult a = runScenario(o);
    const ScenResult b = runScenario(o);
    ASSERT_TRUE(a.drained) << "seed " << seed;
    ASSERT_TRUE(b.drained) << "seed " << seed;
    EXPECT_EQ(a.fdDigest, b.fdDigest) << "seed " << seed;
    EXPECT_EQ(a.metrics.scheduleHash, b.metrics.scheduleHash)
        << "seed " << seed;
    EXPECT_EQ(a.totals.acked, b.totals.acked) << "seed " << seed;
  }
}

}  // namespace
