#include "msg/armci.hpp"

namespace bg::msg {
namespace {

constexpr sim::Cycle kLayerOverhead = 360;  // ARMCI bookkeeping per op
constexpr sim::Cycle kAckPacketCost = 260;  // software cost of the remote ack

}  // namespace

hw::HandlerResult Armci::put(kernel::Thread& t, int myRank, int dstRank,
                             hw::VAddr localVa, hw::VAddr remoteVa,
                             std::uint64_t bytes) {
  const RankInfo* me = world_.rank(myRank);
  const RankInfo* peer = world_.rank(dstRank);
  kernel::KernelBase* kern = me->kern;
  kernel::Thread* tp = &t;

  // Ack travel time back from the target.
  const sim::Cycle ackLatency =
      static_cast<sim::Cycle>(torus_.hops(me->nodeId, peer->nodeId)) *
          hw::kTorusHopLatency +
      kAckPacketCost;

  sim::Engine& eng = torus_.engine();
  const sim::Cycle cost =
      kLayerOverhead + dcmf_.injectionCost(myRank, bytes);
  eng.schedule(cost, [this, myRank, dstRank, localVa, remoteVa, bytes,
                      &eng, kern, tp, ackLatency] {
    dcmf_.iput(myRank, dstRank, localVa, remoteVa, bytes,
               [&eng, kern, tp, ackLatency] {
                 eng.schedule(ackLatency,
                              [kern, tp] { kern->wakeThread(*tp, 0); });
               },
               nullptr);
  });
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return hw::HandlerResult::blocked(cost);
}

hw::HandlerResult Armci::get(kernel::Thread& t, int myRank, int srcRank,
                             hw::VAddr remoteVa, hw::VAddr localVa,
                             std::uint64_t bytes) {
  const RankInfo* me = world_.rank(myRank);
  kernel::KernelBase* kern = me->kern;
  kernel::Thread* tp = &t;
  sim::Engine& eng = torus_.engine();
  // ARMCI's get path adds request marshalling before the DCMF get and
  // a local-handoff cost after the data lands.
  const sim::Cycle cost =
      kLayerOverhead * 2 + dcmf_.injectionCost(myRank, 32);
  eng.schedule(cost, [this, myRank, srcRank, remoteVa, localVa, bytes,
                      &eng, kern, tp] {
    dcmf_.iget(myRank, srcRank, remoteVa, localVa, bytes,
               [&eng, kern, tp, this] {
                 eng.schedule(kLayerOverhead + kAckPacketCost,
                              [kern, tp] { kern->wakeThread(*tp, 0); });
               });
  });
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return hw::HandlerResult::blocked(cost);
}

}  // namespace bg::msg
