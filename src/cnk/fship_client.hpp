// CNK side of the function-shipped I/O protocol (paper §IV-A, Fig 2).
//
// When an application makes an I/O system call, CNK marshals the
// parameters into a message and ships it over the collective network
// to the CIOD on the I/O node. The calling thread blocks WITHOUT
// yielding the core (ctx.yieldOnBlock = false): the paper notes that
// not yielding during an I/O syscall is what makes function shipping
// trivial — no kernel context switch ever happens on a kernel stack.
//
// Reliability: each (pid, tid) channel carries at most one op at a
// time, numbered by a monotone per-channel seq. A user thread is
// blocked while its op is out; ops that share a channel otherwise
// (the coredump and checkpoint-image chains on pid 0's, a failover
// restore on its process's tid-0 channel) queue FIFO behind the op in
// flight. A watchdog retransmits with bounded exponential backoff;
// duplicate and stale replies are suppressed by seq; a request that
// exhausts its retries raises RAS and either returns -EIO to the app
// or parks for a failover grace window. The client also keeps a
// *shadow* of each process's I/O state (fd table with offsets, cwd) —
// the same state the ioproxy mirrors — which (a) supplies explicit
// file offsets for read/write so retransmits are idempotent, and
// (b) rebuilds the ioproxies on a spare I/O node after a CIOD death
// (rehome + kRestoreState), letting in-flight syscalls complete.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hw/collective.hpp"
#include "io/protocol.hpp"
#include "kernel/kernel.hpp"

namespace bg::cnk {

struct FshipStats {
  std::uint64_t requests = 0;         // logical ops shipped
  std::uint64_t repliesMatched = 0;
  std::uint64_t bytesShipped = 0;     // wire bytes incl. retransmits
  std::uint64_t bytesReceived = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;         // watchdog fires
  std::uint64_t duplicateReplies = 0; // suppressed by seq matching
  std::uint64_t corruptReplies = 0;   // checksum-rejected replies
  std::uint64_t eioReturns = 0;       // ops abandoned with -EIO
  std::uint64_t rehomes = 0;          // failovers to a spare I/O node
  std::uint64_t restoresSent = 0;     // kRestoreState ops shipped

  FshipStats& operator+=(const FshipStats& o) {
    requests += o.requests;
    repliesMatched += o.repliesMatched;
    bytesShipped += o.bytesShipped;
    bytesReceived += o.bytesReceived;
    retransmits += o.retransmits;
    timeouts += o.timeouts;
    duplicateReplies += o.duplicateReplies;
    corruptReplies += o.corruptReplies;
    eioReturns += o.eioReturns;
    rehomes += o.rehomes;
    restoresSent += o.restoresSent;
    return *this;
  }
};

class FshipClient {
 public:
  struct Config {
    /// First-try watchdog. The default is far above any fault-free
    /// reply backlog (the io-offload bench queues ~8M cycles behind
    /// one CIOD), so with zero link faults no timer ever fires and
    /// the schedule is bit-identical to a watchdog-free build.
    sim::Cycle requestTimeout = 100'000'000;
    sim::Cycle maxTimeout = 400'000'000;  // backoff cap
    int maxRetries = 5;                   // retransmits before give-up
    /// After retries are exhausted: 0 = return -EIO immediately
    /// (pure watchdog); >0 = park the op this long awaiting a
    /// service-node failover, completing it on the spare.
    sim::Cycle failoverGrace = 0;
  };

  FshipClient(kernel::KernelBase& kern, int ioNodeNetId)
      : FshipClient(kern, ioNodeNetId, Config()) {}
  FshipClient(kernel::KernelBase& kern, int ioNodeNetId, Config cfg);

  /// Register the reply handler on the node's collective tap.
  void attach();

  /// Marshal-and-send costs charged to the calling thread.
  sim::Cycle marshalCost(std::uint64_t payloadBytes) const {
    return 600 + payloadBytes / 8;
  }

  /// Ship a request on behalf of thread t and block it (no yield).
  /// On reply: for kRead/kGetcwd the payload is copied to userBuf
  /// (bounded by userLen), then the thread wakes with the result.
  hw::HandlerResult ship(kernel::Thread& t, io::FsOp op, std::uint64_t a0,
                         std::uint64_t a1, std::uint64_t a2,
                         std::string path, std::vector<std::byte> payload,
                         hw::VAddr userBuf = 0, std::uint64_t userLen = 0);

  /// Lower-level variant for kernel-internal chains (the dynamic
  /// linker's open/read/close sequence): completion gets the reply.
  /// A reply with result == -EIO may be synthesized by the watchdog.
  /// An op shipped on a channel that already has one in flight waits
  /// behind it; completions fire in shipping order.
  using Completion = std::function<void(io::FsReply&&)>;
  sim::Cycle shipRaw(io::FsOp op, std::uint32_t pid, std::uint32_t tid,
                     std::uint64_t a0, std::uint64_t a1, std::uint64_t a2,
                     std::string path, std::vector<std::byte> payload,
                     Completion completion);

  /// Service-node failover hook: point at the replacement I/O node,
  /// rebuild its ioproxies from the shadow state (kRestoreState per
  /// process), then retransmit every op still in flight.
  void rehome(int newIoNodeNetId);

  /// Job teardown: cancel all timers and drop in-flight ops WITHOUT
  /// completing them — the blocked threads are being destroyed, and a
  /// late completion would touch freed memory.
  void reset();

  /// True between a timeout-storm declaration and the next rehome.
  bool ioNodeDead() const { return ioNodeDead_; }
  const Config& config() const { return cfg_; }
  const FshipStats& stats() const { return stats_; }
  /// Ops shipped and not yet completed, queued ones included.
  std::size_t pendingCount() const;
  /// Remote fds a process holds open via the shadow (the checkpoint
  /// engine refuses to cut while any exist: fd state is not in the
  /// image, so a restored process would hold dangling descriptors).
  std::size_t shadowFdCount(std::uint32_t pid) const {
    auto it = shadow_.find(pid);
    return it == shadow_.end() ? 0 : it->second.fds.size();
  }

 private:
  using ChanKey = std::pair<std::uint32_t, std::uint32_t>;  // (pid, tid)

  /// Client-side mirror of one open file description; dup'd fds share
  /// the entry, exactly like the ioproxy's shared OpenFile.
  struct ShadowFile {
    std::string path;  // absolute, normalized
    std::uint64_t flags = 0;
    std::uint64_t offset = 0;
  };
  struct ProcShadow {
    std::map<int, std::shared_ptr<ShadowFile>> fds;
    std::string cwd = "/";
    int nextFd = 3;
    bool awaitingRestore = false;
    bool dirty() const { return !fds.empty() || cwd != "/" || nextFd != 3; }
  };
  struct PendingOp {
    io::FsRequest req;  // retained for retransmit
    Completion completion;
    int attempts = 0;        // transmissions so far
    sim::Cycle timeout = 0;  // current backoff value
    std::optional<sim::EventId> timer;
    bool parked = false;  // awaiting failover grace or a restore ack
  };

  /// Number `op` on its channel and put it on the wire (or park it
  /// behind an awaited restore). The channel must be idle.
  void start(const ChanKey& key, PendingOp op);
  /// Drop the channel's op in flight and start the next queued one.
  void retire(std::map<ChanKey, PendingOp>::iterator it);
  void transmit(PendingOp& op);
  void armTimer(const ChanKey& key, PendingOp& op, sim::Cycle delay,
                bool grace);
  void cancelTimer(PendingOp& op);
  void onTimeout(const ChanKey& key, std::uint64_t seq);
  void onGraceExpired(const ChanKey& key, std::uint64_t seq);
  void onReply(hw::CollPacket&& pkt);
  void giveUp(const ChanKey& key, PendingOp& op);
  void abandonWithEio(const ChanKey& key);
  void declareIoNodeDead();
  void sendRestore(std::uint32_t pid);
  void applyShadow(const io::FsRequest& req, const io::FsReply& rep);
  std::string absolutizeShadow(const ProcShadow& ps,
                               const std::string& path) const;

  kernel::KernelBase& kern_;
  int ioNodeNetId_;
  Config cfg_;
  std::map<ChanKey, std::uint64_t> nextSeq_;
  std::map<ChanKey, PendingOp> pending_;  // the op in flight per channel
  std::map<ChanKey, std::deque<PendingOp>> queued_;  // waiting behind it
  std::map<std::uint32_t, ProcShadow> shadow_;
  bool ioNodeDead_ = false;
  FshipStats stats_;
};

}  // namespace bg::cnk
