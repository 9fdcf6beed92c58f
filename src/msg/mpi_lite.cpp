#include "msg/mpi_lite.hpp"

#include <cstring>
#include <type_traits>

namespace bg::msg {

namespace {

constexpr sim::Cycle kMatchOverhead = 640;  // tag matching vs raw DCMF
constexpr sim::Cycle kRndvOverhead = 420;   // per handshake leg
constexpr sim::Cycle kCollSwOverhead = 480;
// Extra per-collective cost on kernels without user-space network
// access (socket-style kernel path on the FWK).
constexpr sim::Cycle kKernelPathOverhead = 2'600;

// Control message carried in the DCMF payload for MSG-tagged sends.
// Copied whole into the payload, so the padding after `isEager` is a
// named, zeroed field.
struct MsgCtrl {
  std::uint8_t isEager = 0;
  std::uint8_t pad[7] = {};
  std::uint64_t rndvId = 0;
  std::uint64_t bytes = 0;
};
static_assert(sizeof(MsgCtrl) == 24);
static_assert(std::has_unique_object_representations_v<MsgCtrl>);

std::vector<std::byte> encodeEager(std::span<const std::byte> data) {
  MsgCtrl c{.isEager = 1, .bytes = data.size()};
  std::vector<std::byte> out(sizeof c + data.size());
  std::memcpy(out.data(), &c, sizeof c);
  std::memcpy(out.data() + sizeof c, data.data(), data.size());
  return out;
}

std::vector<std::byte> encodeRts(std::uint64_t id, std::uint64_t bytes) {
  MsgCtrl c{.rndvId = id, .bytes = bytes};
  std::vector<std::byte> out(sizeof c);
  std::memcpy(out.data(), &c, sizeof c);
  return out;
}

MsgCtrl decodeCtrl(std::span<const std::byte> buf) {
  MsgCtrl c{};
  if (buf.size() >= sizeof c) std::memcpy(&c, buf.data(), sizeof c);
  return c;
}

}  // namespace

Mpi::Mpi(MsgWorld& world, Dcmf& dcmf, hw::CollectiveNet& coll,
         hw::BarrierNet& barrier, MpiConfig cfg)
    : world_(world), dcmf_(dcmf), coll_(coll), barrier_(barrier),
      cfg_(cfg) {}

void Mpi::setWorldSize(int n) {
  worldSize_ = n;
  barrier_.configureGroup(kBarrierGroup, n);
}

hw::HandlerResult Mpi::send(kernel::Thread& t, int myRank, int dstRank,
                            hw::VAddr src, std::uint64_t bytes,
                            std::uint64_t tag) {
  ++stats_.sends;
  const sim::Cycle inject = dcmf_.injectionCost(myRank, bytes);

  if (bytes <= cfg_.eagerThreshold) {
    std::vector<std::byte> data(bytes);
    dcmf_.readUser(myRank, src, data);
    const sim::Cycle cost =
        kMatchOverhead + inject +
        static_cast<sim::Cycle>(static_cast<double>(bytes) * 0.25);
    // Envelope construction + matching bookkeeping precede injection.
    dcmf_.engineOf().schedule(
        cost, [this, myRank, dstRank, tag, data = std::move(data)]() mutable {
          dcmf_.isend(myRank, dstRank, msgTag(tag), encodeEager(data),
                      nullptr);
        });
    return hw::HandlerResult::done(0, cost);
  }

  // Rendezvous: RTS -> (receiver matches, CTS) -> put -> complete.
  ++stats_.rendezvous;
  const std::uint64_t id = nextRndvId_++;
  Rndv r;
  r.srcRank = myRank;
  r.dstRank = dstRank;
  r.bytes = bytes;
  r.srcVa = src;
  r.sender = &t;
  rndv_[id] = r;

  // Await the CTS at the sending rank.
  dcmf_.irecv(myRank, dstRank, ctsTag(id), [this, id](Dcmf::EagerMsg&& m) {
    auto it = rndv_.find(id);
    if (it == rndv_.end()) return;
    Rndv rv = it->second;
    rndv_.erase(it);
    hw::VAddr dstVa = 0;
    std::memcpy(&dstVa, m.data.data(),
                std::min(sizeof dstVa, m.data.size()));
    kernel::KernelBase* senderKern = world_.rank(rv.srcRank)->kern;
    kernel::Thread* sender = rv.sender;
    // Data flows by one-sided put into the posted buffer. The CTS
    // handler runs in the sender's messaging layer (rndvOverhead)
    // before the put injects. The send completes when the source
    // buffer drains locally; the receive when data is visible at the
    // target.
    dcmf_.engineOf().schedule(
        kRndvOverhead,
        [this, id, rv, dstVa, senderKern, sender] {
          dcmf_.iput(
              rv.srcRank, rv.dstRank, rv.srcVa, dstVa, rv.bytes,
              [this, id] {
                auto rit = rndvRecv_.find(id);
                if (rit == rndvRecv_.end()) return;
                const RndvRecv rr = rit->second;
                rndvRecv_.erase(rit);
                rr.kern->wakeThread(*rr.thread, rr.bytes);
              },
              [senderKern, sender] {
                senderKern->wakeThread(*sender, 0);
              });
        });
  });

  const sim::Cycle cost = kMatchOverhead + kRndvOverhead + inject;
  dcmf_.engineOf().schedule(cost, [this, myRank, dstRank, tag, id, bytes] {
    dcmf_.isend(myRank, dstRank, msgTag(tag), encodeRts(id, bytes),
                nullptr);
  });
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return hw::HandlerResult::blocked(cost);
}

hw::HandlerResult Mpi::recv(kernel::Thread& t, int myRank, int srcRank,
                            hw::VAddr dst, std::uint64_t maxBytes,
                            std::uint64_t tag) {
  ++stats_.recvs;
  kernel::KernelBase* kern = world_.rank(myRank)->kern;
  kernel::Thread* tp = &t;

  // One matching path for both protocols: the control message tells us
  // whether the payload is inline (eager) or must be pulled in via the
  // rendezvous reply.
  auto handle = [this, kern, tp, myRank, dst, maxBytes](
                    Dcmf::EagerMsg&& m) {
    const MsgCtrl c = decodeCtrl(m.data);
    if (c.isEager) {
      const std::size_t n =
          std::min<std::size_t>(static_cast<std::size_t>(c.bytes),
                                static_cast<std::size_t>(maxBytes));
      dcmf_.writeUser(myRank, dst,
                      std::span(m.data.data() + sizeof(MsgCtrl), n));
      // Receive-side matching + unpack cost before the data is usable.
      const sim::Cycle proc =
          kMatchOverhead / 2 +
          static_cast<sim::Cycle>(0.25 * static_cast<double>(n));
      dcmf_.engineOf().schedule(proc,
                                [kern, tp, n] { kern->wakeThread(*tp, n); });
      return;
    }
    // RTS: answer with CTS carrying our buffer address. The sender's
    // put delivers the data; its remote completion wakes us via the
    // rendezvous-receive registry.
    const std::uint64_t id = c.rndvId;
    rndvRecv_[id] = RndvRecv{tp, kern, c.bytes};
    std::vector<std::byte> cts(sizeof(hw::VAddr));
    std::memcpy(cts.data(), &dst, sizeof dst);
    dcmf_.isend(myRank, m.srcRank, ctsTag(id), std::move(cts), nullptr);
  };

  dcmf_.irecv(myRank, srcRank, msgTag(tag), handle);
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return hw::HandlerResult::blocked(kMatchOverhead);
}

hw::HandlerResult Mpi::allreduceSum(kernel::Thread& t, int myRank,
                                    hw::VAddr src, std::uint64_t count,
                                    hw::VAddr dst) {
  ++stats_.allreduces;
  const RankInfo* me = world_.rank(myRank);
  kernel::KernelBase* kern = me->kern;
  kernel::Thread* tp = &t;

  std::vector<double> vals(count);
  dcmf_.readUser(myRank, src,
                 std::as_writable_bytes(std::span(vals)));

  const std::uint64_t epoch = allreduceEpoch_[myRank]++;
  const std::uint64_t groupId = 0xA11C'0000ULL + epoch;

  sim::Cycle cost = kCollSwOverhead +
                    static_cast<sim::Cycle>(8.0 * 0.25 *
                                            static_cast<double>(count));
  if (!kern->supportsUserSpaceDma()) {
    // Kernel-mediated (socket-ish) injection path.
    cost += kKernelPathOverhead;
  }

  Dcmf* dcmf = &dcmf_;
  coll_.contribute(groupId, me->nodeId, std::move(vals), worldSize_,
                   [dcmf, kern, tp, myRank, dst,
                    count](const std::vector<double>& result) {
                     dcmf->writeUser(
                         myRank, dst,
                         std::as_bytes(std::span(result.data(), count)));
                     kern->wakeThread(*tp, count);
                   });
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return hw::HandlerResult::blocked(cost);
}

hw::HandlerResult Mpi::bcast(kernel::Thread& t, int myRank, int rootRank,
                             hw::VAddr buf, std::uint64_t count) {
  ++stats_.bcasts;
  const RankInfo* me = world_.rank(myRank);
  kernel::KernelBase* kern = me->kern;
  kernel::Thread* tp = &t;

  std::vector<double> vals(count, 0.0);
  if (myRank == rootRank) {
    dcmf_.readUser(myRank, buf, std::as_writable_bytes(std::span(vals)));
  }
  const std::uint64_t epoch = allreduceEpoch_[myRank]++;
  const std::uint64_t groupId = 0xBCA5'0000ULL + epoch;

  sim::Cycle cost = kCollSwOverhead +
                    static_cast<sim::Cycle>(8.0 * 0.25 *
                                            static_cast<double>(count));
  if (!kern->supportsUserSpaceDma()) cost += kKernelPathOverhead;

  Dcmf* dcmf = &dcmf_;
  coll_.contribute(groupId, me->nodeId, std::move(vals), worldSize_,
                   [dcmf, kern, tp, myRank, buf,
                    count](const std::vector<double>& result) {
                     dcmf->writeUser(
                         myRank, buf,
                         std::as_bytes(std::span(result.data(), count)));
                     kern->wakeThread(*tp, count);
                   });
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return hw::HandlerResult::blocked(cost);
}

hw::HandlerResult Mpi::barrier(kernel::Thread& t, int myRank) {
  ++stats_.barriers;
  const RankInfo* me = world_.rank(myRank);
  kernel::KernelBase* kern = me->kern;
  kernel::Thread* tp = &t;
  sim::Cycle cost = kCollSwOverhead / 2;
  if (!kern->supportsUserSpaceDma()) cost += kKernelPathOverhead / 2;
  barrier_.arrive(kBarrierGroup, me->nodeId,
                  [kern, tp] { kern->wakeThread(*tp, 0); });
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return hw::HandlerResult::blocked(cost);
}

}  // namespace bg::msg
