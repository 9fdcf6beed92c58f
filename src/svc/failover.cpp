#include "svc/failover.hpp"

#include <algorithm>

#include "sim/bytes.hpp"

namespace bg::svc {

namespace {
constexpr std::uint64_t kSnapshotMagic = 0x42474356'434B5054ULL;  // "BGCVCKPT"
constexpr std::uint64_t kJournalMagic = 0x42474356'4A524E4CULL;   // "BGCVJRNL"
constexpr std::uint64_t kStampBytes = 16;  // generation, sequence number
constexpr hw::VAddr kSvcPersistVBase = 0x5000'0000ULL;

/// Region bytes a record with a `bodyBytes` body takes.
constexpr std::uint64_t frameBytes(std::uint64_t bodyBytes) {
  return cnk::kSealedHeaderBytes + kStampBytes + bodyBytes;
}

struct Stamp {
  std::uint64_t gen = 0;
  std::uint64_t seq = 0;
};

std::optional<Stamp> stampOf(std::span<const std::byte> payload) {
  sim::ByteReader r(payload);
  const Stamp s{r.u64(), r.u64()};
  if (!r.ok()) return std::nullopt;
  return s;
}
}  // namespace

CheckpointStore::CheckpointStore(Config cfg)
    : cfg_(std::move(cfg)), mem_(cfg_.poolBytes) {
  reg_.configurePool(0, cfg_.poolBytes, kSvcPersistVBase);
  reg_.openOrCreate(cfg_.regionName, cfg_.regionBytes, cfg_.uid);
}

bool CheckpointStore::writeRecord(std::uint64_t magic, std::uint64_t at,
                                  std::uint64_t seq,
                                  std::span<const std::byte> body,
                                  sim::Cycle now) {
  // Reopen by name on every save — the same path a restarted daemon
  // takes — so uid and size checks are exercised continuously and the
  // region address provably never moves.
  const auto r = reg_.openOrCreate(cfg_.regionName, cfg_.regionBytes,
                                   cfg_.uid);
  sim::ByteWriter payload;
  payload.u64(seq == 0 ? gen_ + 1 : gen_);
  payload.u64(seq);
  std::ranges::copy(body, payload.grow(body.size()).begin());
  if (!r || at > r->size ||
      !cnk::writeSealed(mem_, r->pbase + at, r->size - at, magic,
                        payload.bytes())) {
    ++failedSaves_;
    return false;
  }
  ++saves_;
  lastImageBytes_ = body.size();
  lastSaveCycle_ = now;
  return true;
}

bool CheckpointStore::save(std::span<const std::byte> image, sim::Cycle now) {
  if (!writeRecord(kSnapshotMagic, 0, 0, image, now)) return false;
  ++gen_;
  seq_ = 0;
  snapshotBytes_ = frameBytes(image.size());
  tail_ = snapshotBytes_;
  journalBytes_ = 0;
  return true;
}

bool CheckpointStore::append(std::span<const std::byte> record,
                             sim::Cycle now) {
  if (gen_ == 0) {
    ++failedSaves_;
    return false;
  }
  if (!writeRecord(kJournalMagic, tail_, seq_ + 1, record, now)) return false;
  ++seq_;
  tail_ += frameBytes(record.size());
  journalBytes_ += frameBytes(record.size());
  return true;
}

bool CheckpointStore::wantsSnapshot(std::uint64_t recordBytes) const {
  const cnk::PersistRegion* r = reg_.find(cfg_.regionName);
  const std::uint64_t bytes = frameBytes(recordBytes);
  return gen_ == 0 || r == nullptr ||
         journalBytes_ + bytes > snapshotBytes_ || tail_ + bytes > r->size;
}

std::optional<std::vector<std::byte>> CheckpointStore::load() const {
  const cnk::PersistRegion* r = reg_.find(cfg_.regionName);
  if (r == nullptr) return std::nullopt;
  std::optional<std::vector<std::byte>> snap =
      cnk::readSealed(mem_, r->pbase, r->size, kSnapshotMagic);
  if (!snap) return std::nullopt;
  const std::optional<Stamp> head = stampOf(*snap);
  if (!head || head->seq != 0) return std::nullopt;
  const std::span<const std::byte> image =
      std::span<const std::byte>(*snap).subspan(kStampBytes);

  std::optional<ImageReplay> replay;
  std::uint64_t at = frameBytes(image.size());
  for (std::uint64_t seq = 1;; ++seq) {
    const std::optional<std::vector<std::byte>> rec =
        cnk::readSealed(mem_, r->pbase + at, r->size - at, kJournalMagic);
    if (!rec) break;
    const std::optional<Stamp> st = stampOf(*rec);
    if (!st || st->gen != head->gen || st->seq != seq) break;
    if (!replay) {
      replay.emplace();
      if (!replay->reset(image)) return std::nullopt;
    }
    if (!replay->apply(std::span<const std::byte>(*rec).subspan(kStampBytes))) {
      break;
    }
    at += cnk::kSealedHeaderBytes + rec->size();
  }
  if (replay) return replay->image();
  return std::vector<std::byte>(image.begin(), image.end());
}

void CheckpointStore::registerImage(
    const std::shared_ptr<kernel::ElfImage>& img) {
  if (img) images_[img->name()] = img;
}

std::shared_ptr<kernel::ElfImage> CheckpointStore::image(
    const std::string& name) const {
  const auto it = images_.find(name);
  return it == images_.end() ? nullptr : it->second;
}

ServiceHost::ServiceHost(rt::Cluster& cluster, ServiceNodeConfig cfg,
                         CheckpointStore::Config storeCfg)
    : cluster_(cluster), cfg_(cfg), store_(std::move(storeCfg)) {
  sn_ = std::make_unique<ServiceNode>(cluster_, cfg_, &store_);
}

JobId ServiceHost::submit(JobDesc desc) {
  store_.registerImage(desc.exe);
  for (const auto& lib : desc.libs) store_.registerImage(lib);
  if (alive()) return sn_->submit(std::move(desc));
  pending_.push_back(std::move(desc));
  return 0;
}

std::vector<JobId> ServiceHost::submitBatch(std::vector<JobDesc> descs) {
  for (const JobDesc& d : descs) {
    store_.registerImage(d.exe);
    for (const auto& lib : d.libs) store_.registerImage(lib);
  }
  if (alive()) return sn_->submitBatch(std::move(descs));
  for (JobDesc& d : descs) pending_.push_back(std::move(d));
  return {};
}

void ServiceHost::start() {
  started_ = true;
  if (alive()) sn_->start();
}

void ServiceHost::crash() {
  if (!alive()) return;
  ++crashes_;
  sn_.reset();  // epoch guard kills every pending control-loop event
}

bool ServiceHost::restart() {
  if (alive()) return false;
  ++restarts_;
  sn_ = ServiceNode::restartFrom(cluster_, cfg_, store_);
  const bool warm = sn_ != nullptr;
  if (!warm) {
    ++coldStarts_;
    sn_ = std::make_unique<ServiceNode>(cluster_, cfg_, &store_);
    if (started_) sn_->start();
  }
  for (JobDesc& d : pending_) sn_->submit(std::move(d));
  pending_.clear();
  if (restartHook_) restartHook_();
  return warm;
}

void ServiceHost::scheduleCrashRestart(sim::Cycle atCycle,
                                       sim::Cycle downCycles) {
  sim::Engine& eng = cluster_.engine();
  eng.scheduleAt(atCycle, [this, &eng, downCycles] {
    crash();
    eng.schedule(downCycles, [this] { restart(); });
  });
}

bool ServiceHost::runUntilDrained(std::uint64_t maxEvents) {
  start();
  return cluster_.engine().runWhile([this] { return drained(); }, maxEvents);
}

SvcMetrics ServiceHost::metrics() {
  SvcMetrics m = alive() ? sn_->metrics() : SvcMetrics{};
  m.serviceCrashes = crashes_;
  m.serviceRestarts = restarts_;
  m.checkpointSaves = store_.saves();
  m.checkpointBytes = store_.lastImageBytes();
  m.checkpointFailedSaves = store_.failedSaves();
  return m;
}

}  // namespace bg::svc
