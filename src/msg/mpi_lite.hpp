// MPI-lite: a thin MPI-shaped layer over DCMF (paper §V-C, Table I).
//
// Point-to-point adds tag matching over DCMF's active messages, with
// an eager/rendezvous protocol switch; collectives use the collective
// (tree) network's hardware combine and the global barrier network —
// the same substrate split as on real BG/P. The cost deltas over raw
// DCMF (matching, rendezvous handshake) are what separate Table I's
// MPI rows from its DCMF rows.
#pragma once

#include <cstdint>
#include <map>

#include "hw/barrier_net.hpp"
#include "hw/collective.hpp"
#include "msg/dcmf.hpp"

namespace bg::msg {

struct MpiConfig {
  std::uint64_t eagerThreshold = 1200;  // bytes
};

struct MpiStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t rendezvous = 0;
  std::uint64_t allreduces = 0;
  std::uint64_t bcasts = 0;
  std::uint64_t barriers = 0;
};

class Mpi {
 public:
  static constexpr std::uint64_t kBarrierGroup = 0xBA44;

  Mpi(MsgWorld& world, Dcmf& dcmf, hw::CollectiveNet& coll,
      hw::BarrierNet& barrier, MpiConfig cfg = {});

  /// Configure the world size (and the barrier group).
  void setWorldSize(int n);
  int worldSize() const { return worldSize_; }

  hw::HandlerResult send(kernel::Thread& t, int myRank, int dstRank,
                         hw::VAddr src, std::uint64_t bytes,
                         std::uint64_t tag);
  hw::HandlerResult recv(kernel::Thread& t, int myRank, int srcRank,
                         hw::VAddr dst, std::uint64_t maxBytes,
                         std::uint64_t tag);
  hw::HandlerResult allreduceSum(kernel::Thread& t, int myRank,
                                 hw::VAddr src, std::uint64_t count,
                                 hw::VAddr dst);
  /// Broadcast from rootRank over the tree's combine hardware (a
  /// sum where non-roots contribute zeros — numerically exact for the
  /// tree ALU and latency-equivalent to its broadcast mode).
  hw::HandlerResult bcast(kernel::Thread& t, int myRank, int rootRank,
                          hw::VAddr buf, std::uint64_t count);
  hw::HandlerResult barrier(kernel::Thread& t, int myRank);

  const MpiStats& stats() const { return stats_; }

 private:
  // Message tag namespace over DCMF tags.
  static std::uint64_t msgTag(std::uint64_t userTag) {
    return (1ULL << 56) | userTag;
  }
  static std::uint64_t ctsTag(std::uint64_t rndvId) {
    return (2ULL << 56) | rndvId;
  }

  struct Rndv {
    int srcRank = 0;
    int dstRank = 0;
    std::uint64_t bytes = 0;
    hw::VAddr srcVa = 0;
    kernel::Thread* sender = nullptr;
  };
  struct RndvRecv {
    kernel::Thread* thread = nullptr;
    kernel::KernelBase* kern = nullptr;
    std::uint64_t bytes = 0;
  };

  MsgWorld& world_;
  Dcmf& dcmf_;
  hw::CollectiveNet& coll_;
  hw::BarrierNet& barrier_;
  MpiConfig cfg_;
  int worldSize_ = 0;
  std::uint64_t nextRndvId_ = 1;
  std::map<std::uint64_t, Rndv> rndv_;
  std::map<std::uint64_t, RndvRecv> rndvRecv_;
  std::map<int, std::uint64_t> allreduceEpoch_;
  MpiStats stats_;
};

}  // namespace bg::msg
