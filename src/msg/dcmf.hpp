// DCMF-like user-space messaging layer (paper §V-C, Table I, Fig 8).
//
// DCMF "relies on CNK's ability to allow the messaging hardware to be
// used from user space, the ability to know the virtual to physical
// mapping from user space, and the ability to have large physically
// contiguous chunks of memory". Those three capabilities are queried
// from the kernel: on CNK the per-operation software overhead is a
// descriptor build; on an FWK the layer must pin pages by syscall and
// bounce through a contiguous kernel buffer, which costs latency and
// bandwidth — mechanically reproducing why Table I's numbers "came for
// free" on CNK.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "hw/torus.hpp"
#include "kernel/process.hpp"
#include "msg/world.hpp"
#include "sim/types.hpp"

namespace bg::msg {

struct DcmfStats {
  std::uint64_t eagerSends = 0;
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t bytesSent = 0;
};

class Dcmf {
 public:
  Dcmf(MsgWorld& world, hw::TorusNet& torus);

  /// Install the torus packet handler for a node (all ranks on it).
  void attachNode(int nodeId);

  // ---- internal (callback) API, used by MPI-lite / ARMCI ----

  struct EagerMsg {
    int srcRank = 0;
    std::uint64_t tag = 0;
    std::vector<std::byte> data;
  };

  /// Software overhead the *caller* must charge for issuing a send of
  /// `bytes` from `rank` (depends on the rank's kernel capabilities).
  sim::Cycle injectionCost(int rank, std::uint64_t bytes) const;

  /// Eager active-message send; onLocal fires when the injection FIFO
  /// drains.
  void isend(int srcRank, int dstRank, std::uint64_t tag,
             std::vector<std::byte> data, std::function<void()> onLocal);

  /// Receive: match an already-arrived message or register a handler.
  /// srcRank == -1 matches any source.
  void irecv(int rank, int srcRank, std::uint64_t tag,
             std::function<void(EagerMsg&&)> cb);

  /// One-sided put of real bytes from (srcRank, localVa) to
  /// (dstRank, remoteVa). onRemote fires when data is globally visible
  /// at the target; onLocal when the source buffer is reusable.
  void iput(int srcRank, int dstRank, hw::VAddr localVa, hw::VAddr remoteVa,
            std::uint64_t bytes, std::function<void()> onRemote,
            std::function<void()> onLocal);

  /// One-sided get.
  void iget(int rank, int srcRank, hw::VAddr remoteVa, hw::VAddr localVa,
            std::uint64_t bytes, std::function<void()> onComplete);

  // ---- blocking rtcall-facing operations ----

  hw::HandlerResult send(kernel::Thread& t, int myRank, int dstRank,
                         hw::VAddr src, std::uint64_t bytes,
                         std::uint64_t tag);
  hw::HandlerResult recvWait(kernel::Thread& t, int myRank, int srcRank,
                             hw::VAddr dst, std::uint64_t maxBytes,
                             std::uint64_t tag);
  hw::HandlerResult put(kernel::Thread& t, int myRank, int dstRank,
                        hw::VAddr localVa, hw::VAddr remoteVa,
                        std::uint64_t bytes, bool waitRemote);
  hw::HandlerResult get(kernel::Thread& t, int myRank, int srcRank,
                        hw::VAddr remoteVa, hw::VAddr localVa,
                        std::uint64_t bytes);

  const DcmfStats& stats() const { return stats_; }

  sim::Engine& engineOf() { return torus_.engine(); }

  /// Read/write user memory of a rank (used by the collective layer
  /// too): handles page-walks on FWK, static map on CNK.
  bool readUser(int rank, hw::VAddr va, std::span<std::byte> out);
  bool writeUser(int rank, hw::VAddr va, std::span<const std::byte> in);

 private:
  struct Waiter {
    int srcRank;
    std::uint64_t tag;
    std::function<void(EagerMsg&&)> cb;
  };
  void onPacket(hw::TorusPacket&& pkt);
  bool rankUsesUserDma(int rank) const;

  MsgWorld& world_;
  hw::TorusNet& torus_;
  std::map<int, std::deque<EagerMsg>> unexpected_;  // by receiving rank
  std::map<int, std::vector<Waiter>> waiting_;
  std::map<std::uint64_t, std::function<void()>> putCompletions_;
  struct GetPending {
    hw::VAddr localVa;
    int rank;
    std::function<void()> cb;
  };
  std::map<std::uint64_t, GetPending> getCompletions_;
  std::uint64_t nextPutId_ = 1;
  std::uint64_t nextGetId_ = 1;
  DcmfStats stats_;
};

}  // namespace bg::msg
