#include "msg/armci.hpp"

namespace bg::msg {

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
          torus_.config().hopLatency +
      cfg_.ackPacketCost;

  sim::Engine& eng = torus_.engine();
  const sim::Cycle cost =
      cfg_.layerOverhead + dcmf_.injectionCost(myRank, bytes);
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
      cfg_.layerOverhead * 2 + dcmf_.injectionCost(myRank, 32);
  eng.schedule(cost, [this, myRank, srcRank, remoteVa, localVa, bytes,
                      &eng, kern, tp] {
    dcmf_.iget(myRank, srcRank, remoteVa, localVa, bytes,
               [&eng, kern, tp, this] {
                 eng.schedule(cfg_.layerOverhead + cfg_.ackPacketCost,
                              [kern, tp] { kern->wakeThread(*tp, 0); });
               });
  });
  t.ctx.state = hw::ThreadState::kBlocked;
  t.ctx.yieldOnBlock = false;
  return hw::HandlerResult::blocked(cost);
}

}  // namespace bg::msg
