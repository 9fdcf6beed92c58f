// ARMCI-lite: blocking one-sided operations over DCMF (Table I rows
// "ARMCI blocking Put/Get").
//
// ARMCI's blocking put is ordered: it returns only after the data is
// visible at the target and the acknowledgement has come back, which
// is why its latency sits above DCMF's fire-and-forget put. Blocking
// get adds the ARMCI handoff on top of DCMF's request/response.
#pragma once

#include "msg/dcmf.hpp"

namespace bg::msg {

class Armci {
 public:
  Armci(MsgWorld& world, Dcmf& dcmf, hw::TorusNet& torus)
      : world_(world), dcmf_(dcmf), torus_(torus) {}

  hw::HandlerResult put(kernel::Thread& t, int myRank, int dstRank,
                        hw::VAddr localVa, hw::VAddr remoteVa,
                        std::uint64_t bytes);
  hw::HandlerResult get(kernel::Thread& t, int myRank, int srcRank,
                        hw::VAddr remoteVa, hw::VAddr localVa,
                        std::uint64_t bytes);

 private:
  MsgWorld& world_;
  Dcmf& dcmf_;
  hw::TorusNet& torus_;
};

}  // namespace bg::msg
