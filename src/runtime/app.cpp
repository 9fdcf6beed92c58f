#include "runtime/app.hpp"

#include <algorithm>

namespace bg::rt {

Cluster::Cluster(const ClusterConfig& cfg) : cfg_(cfg) {
  hw::MachineConfig mc;
  mc.computeNodes = cfg_.computeNodes;
  mc.ioNodes = cfg_.ioNodes;
  mc.computeNodesPerIoNode = cfg_.computeNodesPerIoNode;
  mc.spareIoNodes = cfg_.spareIoNodes;
  mc.node = cfg_.node;
  mc.torus = cfg_.torus;
  mc.collectiveFaults = cfg_.collectiveFaults;
  mc.torusFaults = cfg_.torusFaults;
  mc.memFaults = cfg_.memFaults;
  mc.seed = cfg_.seed;
  machine_ = std::make_unique<hw::Machine>(mc);

  // I/O nodes: a VFS (RamFS root + NFS mount) served by CIOD.
  for (int i = 0; i < machine_->numIoNodes(); ++i) {
    auto vfs = std::make_unique<io::Vfs>();
    auto root = std::make_shared<io::RamFs>();
    auto nfs = std::make_shared<io::NfsSim>();
    root->mkdir("/lib");
    root->mkdir("/tmp");
    vfs->mount("/", root);
    vfs->mount("/nfs", nfs);
    ciods_.push_back(
        std::make_unique<io::Ciod>(machine_->ioNode(i), *vfs));
    ioVfs_.push_back(std::move(vfs));
    ioRoot_.push_back(std::move(root));
  }

  // Compute-node kernels + runtime dispatchers.
  for (int n = 0; n < machine_->numComputeNodes(); ++n) {
    hw::Node& node = machine_->node(n);
    std::unique_ptr<kernel::KernelBase> kern;
    if (kernelKindOn(n) == KernelKind::kCnk) {
      cnk::CnkKernel::Config kc = cfg_.cnk;
      kc.ioNodeNetId = machine_->ioNodeNetIdFor(n);
      kern = std::make_unique<cnk::CnkKernel>(node, kc);
    } else {
      fwk::FwkKernel::Config kc = cfg_.fwk;
      kc.entropy = cfg_.fwk.entropy + static_cast<std::uint64_t>(n) * 977;
      kern = std::make_unique<fwk::FwkKernel>(node, kc);
    }
    kern->setSampleSinkProvider(
        [this](const kernel::Process& p, int threadIndex)
            -> std::vector<std::uint64_t>* {
          auto it = sinks_.find({p.rank, threadIndex});
          return it == sinks_.end() ? nullptr : it->second;
        });
    kernels_.push_back(std::move(kern));
    dispatchers_.push_back(std::make_unique<Dispatcher>(node));
  }

  // Torus hard faults surface as RAS events on the link's source
  // node's kernel, the way BG's link CRC monitors fed the RAS stream:
  // the control plane (src/svc) learns about fabric health from the
  // same aggregated log it already polls. The handler only fires on
  // explicit killLink/degradeLink calls, so fault-free schedules are
  // untouched. detail packs the directed link: (dim << 1) | positive.
  machine_->torus().setLinkEventHandler(
      [this](int srcNode, int dim, bool positive, bool dead) {
        if (srcNode < 0 ||
            srcNode >= static_cast<int>(kernels_.size())) {
          return;
        }
        kernels_[static_cast<std::size_t>(srcNode)]->logRas(
            dead ? kernel::RasEvent::Code::kLinkDead
                 : kernel::RasEvent::Code::kLinkDegraded,
            /*pid=*/0, /*tid=*/0,
            (static_cast<std::uint64_t>(dim) << 1) | (positive ? 1u : 0u));
      });

  // Messaging stack.
  dcmf_ = std::make_unique<msg::Dcmf>(world_, machine_->torus());
  mpi_ = std::make_unique<msg::Mpi>(world_, *dcmf_, machine_->collective(),
                                    machine_->barrier(), cfg_.mpi);
  armci_ = std::make_unique<msg::Armci>(world_, *dcmf_, machine_->torus());
  for (int n = 0; n < machine_->numComputeNodes(); ++n) {
    dcmf_->attachNode(n);
    dispatchers_[n]->attachMessaging(&world_, dcmf_.get(), mpi_.get(),
                                     armci_.get());
  }
}

Cluster::~Cluster() = default;

void Cluster::rehomePset(int ioIdx, int netId) {
  for (int n = 0; n < machine_->numComputeNodes(); ++n) {
    if (machine_->ioNodeIndexFor(n) != ioIdx) continue;
    if (auto* c = cnkOn(n)) c->fship().rehome(netId);
  }
}

int Cluster::failoverIoNode(int ioIdx) {
  if (ioIdx < 0 || ioIdx >= machine_->numIoNodes()) return -1;
  if (nextSpareIo_ >= machine_->numSpareIoNodes()) return -1;
  hw::Node& spare = machine_->spareIoNode(nextSpareIo_++);
  auto& slot = ciods_[static_cast<std::size_t>(ioIdx)];
  // crash() BEFORE constructing the replacement: ~Ciod detaches its
  // network handler, and on a shared node that would tear down the
  // newcomer's registration. (Here the nodes differ, but keep the
  // invariant uniform with rebootIoNode.)
  slot->crash();
  retiredCiodStats_ += slot->stats();
  slot = std::make_unique<io::Ciod>(
      spare, *ioVfs_[static_cast<std::size_t>(ioIdx)]);
  rehomePset(ioIdx, spare.id());
  return spare.id();
}

void Cluster::rebootIoNode(int ioIdx) {
  if (ioIdx < 0 || ioIdx >= machine_->numIoNodes()) return;
  auto& slot = ciods_[static_cast<std::size_t>(ioIdx)];
  slot->crash();
  retiredCiodStats_ += slot->stats();
  hw::Node& node = slot->ioNode();
  slot = std::make_unique<io::Ciod>(
      node, *ioVfs_[static_cast<std::size_t>(ioIdx)]);
  rehomePset(ioIdx, node.id());
}

cnk::FshipStats Cluster::fshipTotals() {
  cnk::FshipStats total;
  for (int n = 0; n < machine_->numComputeNodes(); ++n) {
    if (auto* c = cnkOn(n)) total += c->fship().stats();
  }
  return total;
}

io::CiodStats Cluster::ciodTotals() const {
  io::CiodStats total = retiredCiodStats_;
  for (const auto& c : ciods_) total += c->stats();
  return total;
}

bool Cluster::bootAll(std::uint64_t maxEvents) {
  for (auto& k : kernels_) k->boot();
  return engine().runWhile(
      [this] {
        return std::all_of(kernels_.begin(), kernels_.end(),
                           [](const auto& k) { return k->booted(); });
      },
      maxEvents);
}

bool Cluster::loadJob(const kernel::JobSpec& job) {
  // Stage dynamic libraries on every I/O node's root filesystem so the
  // CNK linker can function-ship open/read/close against them.
  for (auto& root : ioRoot_) {
    for (const auto& lib : job.libs) {
      root->putFile("/lib/" + lib->name(), lib->textContents());
    }
  }
  std::vector<std::string> libNames;
  for (const auto& lib : job.libs) libNames.push_back(lib->name());

  for (int n = 0; n < machine_->numComputeNodes(); ++n) {
    dispatchers_[n]->loader().setLibNames(libNames);
    kernel::JobSpec local = job;
    local.firstRank = n * job.processes;
    if (!kernels_[n]->loadJob(local)) return false;
  }

  // Register ranks and fix up npes in every main thread.
  world_.clear();
  int total = 0;
  // Only live processes of THIS job count (earlier jobs' processes may
  // still sit exited in an FWK's process table).
  for (int n = 0; n < machine_->numComputeNodes(); ++n) {
    for (auto& p : kernels_[n]->processes()) {
      if (p->kernelResident || p->exited) continue;
      world_.registerRank(p->rank,
                          msg::RankInfo{machine_->node(n).id(), p->pid(),
                                        &machine_->node(n),
                                        kernels_[n].get()});
      ++total;
    }
  }
  for (int n = 0; n < machine_->numComputeNodes(); ++n) {
    for (auto& p : kernels_[n]->processes()) {
      if (p->kernelResident || p->exited) continue;
      if (kernel::Thread* main = p->mainThread()) {
        main->ctx.regs[2] = static_cast<std::uint64_t>(total);
      }
    }
  }
  mpi_->setWorldSize(total);
  return true;
}

bool Cluster::loadJobOnNode(int n, const kernel::JobSpec& job) {
  if (n < 0 || n >= machine_->numComputeNodes()) return false;
  if (!job.libs.empty()) {
    auto& root = ioRoot_[static_cast<std::size_t>(
        machine_->ioNodeIndexFor(n))];
    for (const auto& lib : job.libs) {
      root->putFile("/lib/" + lib->name(), lib->textContents());
    }
    std::vector<std::string> libNames;
    for (const auto& lib : job.libs) libNames.push_back(lib->name());
    dispatchers_[static_cast<std::size_t>(n)]->loader().setLibNames(libNames);
  }
  return kernels_[static_cast<std::size_t>(n)]->loadJob(job);
}

bool Cluster::jobDone() const {
  return std::all_of(kernels_.begin(), kernels_.end(),
                     [](const auto& k) { return k->jobDone(); });
}

bool Cluster::run(std::uint64_t maxEvents) {
  return engine().runWhile([this] { return jobDone(); }, maxEvents);
}

void Cluster::attachSamples(int rank, int threadIndex,
                            std::vector<std::uint64_t>* sink) {
  sinks_[{rank, threadIndex}] = sink;
}

std::string Cluster::consoleOf(int n) const {
  return kernels_[n]->console();
}

}  // namespace bg::rt
