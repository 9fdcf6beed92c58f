// Per-node runtime dispatcher: routes rtcalls from the VM to the
// modeled user-space libraries (malloc, pthreads, loader, messaging).
#pragma once

#include "hw/kernel_if.hpp"
#include "msg/armci.hpp"
#include "msg/dcmf.hpp"
#include "msg/mpi_lite.hpp"
#include "runtime/libc.hpp"
#include "runtime/loader.hpp"
#include "runtime/pthreads.hpp"
#include "runtime/rt_ids.hpp"

namespace bg::rt {

class Dispatcher final : public hw::RuntimeIf {
 public:
  explicit Dispatcher(hw::Node& node) : node_(node), pthreads_(malloc_) {
    node.attachRuntime(this);
  }

  /// Wire up the messaging stack (optional: single-node jobs that do
  /// no messaging can skip this).
  void attachMessaging(msg::MsgWorld* world, msg::Dcmf* dcmf,
                       msg::Mpi* mpi, msg::Armci* armci) {
    world_ = world;
    dcmf_ = dcmf;
    mpi_ = mpi;
    armci_ = armci;
  }

  Loader& loader() { return loader_; }

  hw::HandlerResult rtcall(hw::Core& core, hw::ThreadCtx& ctx,
                           std::int64_t fnId) override;

 private:
  hw::Node& node_;
  Malloc malloc_;
  Pthreads pthreads_;
  Loader loader_;
  msg::MsgWorld* world_ = nullptr;
  msg::Dcmf* dcmf_ = nullptr;
  msg::Mpi* mpi_ = nullptr;
  msg::Armci* armci_ = nullptr;
};

}  // namespace bg::rt
