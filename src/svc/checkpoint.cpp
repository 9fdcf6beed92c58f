#include "svc/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "svc/accounting.hpp"
#include "svc/ras.hpp"

namespace bg::svc {
namespace {

bool decodeJob(sim::ByteReader& r, SvcCheckpoint::JobEntry& e) {
  JobRecord& j = e.rec;
  j.id = r.u32();
  j.desc.name = r.str();
  j.desc.kernel = r.u8() == 0 ? rt::KernelKind::kCnk : rt::KernelKind::kFwk;
  j.desc.nodes = static_cast<int>(r.u32());
  j.desc.processes = static_cast<int>(r.u32());
  j.desc.sharedMemBytes = r.u64();
  j.desc.estCycles = r.u64();
  j.desc.maxRetries = static_cast<int>(r.u32());
  j.desc.account = r.u32();
  e.exeName = r.str();
  const std::uint64_t nl = r.u64();
  for (std::uint64_t i = 0; i < nl && r.ok(); ++i) {
    e.libNames.push_back(r.str());
  }
  j.state = static_cast<JobState>(r.u8());
  j.submitCycle = r.u64();
  j.firstStartCycle = r.u64();
  j.startCycle = r.u64();
  j.endCycle = r.u64();
  j.attempts = static_cast<int>(r.u32());
  const std::uint64_t nh = r.u64();
  for (std::uint64_t i = 0; i < nh && r.ok(); ++i) {
    j.nodesHeld.push_back(static_cast<int>(r.u32()));
  }
  const std::uint64_t np = r.u64();
  for (std::uint64_t i = 0; i < np && r.ok(); ++i) {
    const int node = static_cast<int>(r.u32());
    const std::uint32_t pid = r.u32();
    j.pids.emplace_back(node, pid);
  }
  j.exitStatus = r.i64();
  j.preemptCount = static_cast<int>(r.u32());
  j.ckptSeq = r.u32();
  return r.ok();
}

/// The bytes of the next job entry in `r`, which reads `in`. Entries
/// carry no length; decoding one finds its end. Empty on a bad entry.
std::span<const std::byte> nextJobEntry(sim::ByteReader& r,
                                        std::span<const std::byte> in) {
  const std::size_t at = r.pos();
  SvcCheckpoint::JobEntry scratch;
  if (!decodeJob(r, scratch)) return {};
  return in.subspan(at, r.pos() - at);
}

void putBytes(sim::ByteWriter& w, std::span<const std::byte> bytes) {
  std::ranges::copy(bytes, w.grow(bytes.size()).begin());
}

std::vector<std::byte> copyOf(std::span<const std::byte> bytes) {
  return {bytes.begin(), bytes.end()};
}

constexpr std::size_t sectionIndex(ImageSection s) {
  return static_cast<std::size_t>(s);
}

}  // namespace

void SvcCheckpoint::encodeHead(sim::ByteWriter& w) const {
  w.u32(kVersion);
  w.u64(takenAt);
  w.u64(scheduleHash);
  w.u32(nextId);
  for (std::uint64_t v : counters.values) w.u64(v);
  w.u64(sickNodes.size());
  for (int n : sickNodes) w.u32(static_cast<std::uint32_t>(n));
  w.u64(firstSubmit);
  w.u64(lastEnd);
  w.u64(pumpDue);
}

void SvcCheckpoint::encodeJob(sim::ByteWriter& w, const JobRecord& j,
                              const std::string& exeName,
                              const std::vector<std::string>& libNames) {
  w.u32(j.id);
  w.str(j.desc.name);
  w.u8(j.desc.kernel == rt::KernelKind::kCnk ? 0 : 1);
  w.u32(static_cast<std::uint32_t>(j.desc.nodes));
  w.u32(static_cast<std::uint32_t>(j.desc.processes));
  w.u64(j.desc.sharedMemBytes);
  w.u64(j.desc.estCycles);
  w.u32(static_cast<std::uint32_t>(j.desc.maxRetries));
  w.u32(j.desc.account);
  w.str(exeName);
  w.u64(libNames.size());
  for (const std::string& n : libNames) w.str(n);
  w.u8(static_cast<std::uint8_t>(j.state));
  w.u64(j.submitCycle);
  w.u64(j.firstStartCycle);
  w.u64(j.startCycle);
  w.u64(j.endCycle);
  w.u32(static_cast<std::uint32_t>(j.attempts));
  w.u64(j.nodesHeld.size());
  for (int n : j.nodesHeld) w.u32(static_cast<std::uint32_t>(n));
  w.u64(j.pids.size());
  for (const auto& [node, pid] : j.pids) {
    w.u32(static_cast<std::uint32_t>(node));
    w.u32(pid);
  }
  w.i64(j.exitStatus);
  w.u32(static_cast<std::uint32_t>(j.preemptCount));
  w.u32(j.ckptSeq);
}

void SvcCheckpoint::encodeTables(sim::ByteWriter& w) const {
  w.u64(running.size());
  for (JobId id : running) w.u32(id);
  w.u64(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PartitionManager::NodeSnapshot& s = nodes[i];
    w.u8(s.kernel == rt::KernelKind::kCnk ? 0 : 1);
    w.u8(static_cast<std::uint8_t>(s.state));
    w.u32(s.job);
    w.u64(s.busySince);
    w.u64(s.busyCycles);
    w.u64(s.failures);
    w.u8(static_cast<std::uint8_t>(ops[i].kind));
    w.u64(ops[i].due);
  }
}

void SvcCheckpoint::encode(sim::ByteWriter& w) const {
  encodeHead(w);
  w.u64(jobs.size());
  for (const JobEntry& e : jobs) encodeJob(w, e.rec, e.exeName, e.libNames);
  w.u64(queue.size());
  for (JobId id : queue) w.u32(id);
  encodeTables(w);
  w.u64(timeline.size());
  for (const std::string& line : timeline) w.str(line);
}

bool SvcCheckpoint::decode(sim::ByteReader& r) {
  if (r.u32() != kVersion) return false;
  takenAt = r.u64();
  scheduleHash = r.u64();
  nextId = r.u32();
  for (std::uint64_t& v : counters.values) v = r.u64();
  const std::uint64_t ns = r.u64();
  for (std::uint64_t i = 0; i < ns && r.ok(); ++i) {
    sickNodes.push_back(static_cast<int>(r.u32()));
  }
  firstSubmit = r.u64();
  lastEnd = r.u64();
  pumpDue = r.u64();
  const std::uint64_t nj = r.u64();
  for (std::uint64_t i = 0; i < nj && r.ok(); ++i) {
    JobEntry e;
    if (!decodeJob(r, e)) return false;
    jobs.push_back(std::move(e));
  }
  const std::uint64_t nq = r.u64();
  for (std::uint64_t i = 0; i < nq && r.ok(); ++i) queue.push_back(r.u32());
  const std::uint64_t nr = r.u64();
  for (std::uint64_t i = 0; i < nr && r.ok(); ++i) running.push_back(r.u32());
  const std::uint64_t nn = r.u64();
  for (std::uint64_t i = 0; i < nn && r.ok(); ++i) {
    PartitionManager::NodeSnapshot s;
    s.kernel = r.u8() == 0 ? rt::KernelKind::kCnk : rt::KernelKind::kFwk;
    s.state = static_cast<NodeLifecycle>(r.u8());
    s.job = r.u32();
    s.busySince = r.u64();
    s.busyCycles = r.u64();
    s.failures = r.u64();
    PendingNodeOp op;
    op.kind = static_cast<PendingNodeOp::Kind>(r.u8());
    op.due = r.u64();
    nodes.push_back(s);
    ops.push_back(op);
  }
  const std::uint64_t nt = r.u64();
  for (std::uint64_t i = 0; i < nt && r.ok(); ++i) {
    timeline.push_back(r.str());
  }
  return r.ok();
}

// --- image sections -----------------------------------------------------

namespace {

void encodeJobRecord(sim::ByteWriter& w, const JobRecord& jr) {
  static const std::string kNoExe;
  std::vector<std::string> libNames;
  for (const auto& lib : jr.desc.libs) {
    if (lib) libNames.push_back(lib->name());
  }
  SvcCheckpoint::encodeJob(w, jr, jr.desc.exe ? jr.desc.exe->name() : kNoExe,
                           libNames);
}

}  // namespace

void JournalBase::advance(const ImageSource& s) {
  jobs = s.jobs.size();
  queue.assign(s.queue.begin(), s.queue.end());
  lines = s.timeline.size();
  rasBegin = s.ras.streamBegin();
  rasEnd = s.ras.streamEnd();
}

std::vector<std::byte> encodeImage(const ImageSource& s) {
  ImageWriter img;
  sim::ByteWriter& w = img.out();
  s.head.encodeHead(w);
  img.close();
  w.u64(s.jobs.size());
  for (const JobRecord& jr : s.jobs) encodeJobRecord(w, jr);
  img.close();
  w.u64(s.queue.size());
  for (JobId id : s.queue) w.u32(id);
  img.close();
  s.head.encodeTables(w);
  img.close();
  w.u64(s.timeline.size());
  for (const std::string& line : s.timeline) w.str(line);
  img.close();
  s.ras.saveStateTo(w);
  img.close();
  s.ras.saveStreamTo(w);
  img.close();
  s.accounting.saveTo(w);
  img.close();
  return std::move(img).take();
}

void encodeJournalRecord(sim::ByteWriter& w, const ImageSource& s,
                         const JournalBase& base,
                         std::span<const JobId> changed) {
  writeFramed(w, [&] { s.head.encodeHead(w); });

  const std::size_t entriesAt = w.size();
  w.u32(0);
  std::uint32_t entries = 0;
  for (JobId id : changed) {
    if (id > base.jobs) break;  // new jobs follow below
    encodeJobRecord(w, s.jobs[id - 1]);
    ++entries;
  }
  for (std::size_t i = base.jobs; i < s.jobs.size(); ++i) {
    encodeJobRecord(w, s.jobs[i]);
    ++entries;
  }
  w.patchU32(entriesAt, entries);

  // The queue only appends and erases: keep the persisted ids that
  // still lead it in order, remove the rest, append what follows.
  const std::size_t removedAt = w.size();
  w.u32(0);
  std::uint32_t removed = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < base.queue.size(); ++i) {
    if (kept < s.queue.size() && s.queue[kept] == base.queue[i]) {
      ++kept;
    } else {
      w.u32(static_cast<std::uint32_t>(i));
      ++removed;
    }
  }
  w.patchU32(removedAt, removed);
  w.u32(static_cast<std::uint32_t>(s.queue.size() - kept));
  for (std::size_t i = kept; i < s.queue.size(); ++i) w.u32(s.queue[i]);

  writeFramed(w, [&] { s.head.encodeTables(w); });
  w.u32(static_cast<std::uint32_t>(s.timeline.size() - base.lines));
  for (std::size_t i = base.lines; i < s.timeline.size(); ++i) {
    w.str(s.timeline[i]);
  }
  writeFramed(w, [&] { s.ras.saveStateTo(w); });

  // Persisted events [rasBegin, rasEnd) that left the stream's front,
  // then every event stored since rasEnd that it still holds.
  const std::uint64_t begin = s.ras.streamBegin();
  const std::uint64_t from = std::max(base.rasEnd, begin);
  w.u32(static_cast<std::uint32_t>(std::min(begin, base.rasEnd) -
                                   base.rasBegin));
  w.u32(static_cast<std::uint32_t>(s.ras.streamEnd() - from));
  const std::deque<SvcRasEvent>& stream = s.ras.stream();
  for (std::size_t i = static_cast<std::size_t>(from - begin);
       i < stream.size(); ++i) {
    RasAggregator::encodeEvent(w, stream[i]);
  }
  writeFramed(w, [&] { s.accounting.saveTo(w); });
}

void ImageWriter::close() {
  w_.patchU32(4 * closed_, static_cast<std::uint32_t>(w_.size() - start_));
  ++closed_;
  start_ = w_.size();
}

std::span<const std::byte> imageBody(std::span<const std::byte> image) {
  if (image.size() < kImageTableBytes) return {};
  return image.subspan(kImageTableBytes);
}

bool ImageReplay::reset(std::span<const std::byte> image) {
  if (image.size() < kImageTableBytes) return false;
  sim::ByteReader table(image.first(kImageTableBytes));
  std::array<std::span<const std::byte>, kImageSections> sec;
  std::size_t at = kImageTableBytes;
  for (std::span<const std::byte>& s : sec) {
    const std::uint32_t len = table.u32();
    if (len > image.size() - at) return false;
    s = image.subspan(at, len);
    at += len;
  }
  if (at != image.size()) return false;

  head_ = copyOf(sec[sectionIndex(ImageSection::kHead)]);
  tables_ = copyOf(sec[sectionIndex(ImageSection::kTables)]);
  rasState_ = copyOf(sec[sectionIndex(ImageSection::kRasState)]);
  accounting_ = copyOf(sec[sectionIndex(ImageSection::kAccounting)]);

  const std::span<const std::byte> jobs =
      sec[sectionIndex(ImageSection::kJobs)];
  sim::ByteReader jr(jobs);
  const std::uint64_t nj = jr.u64();
  jobs_.clear();
  for (std::uint64_t i = 0; i < nj && jr.ok(); ++i) {
    const std::span<const std::byte> e = nextJobEntry(jr, jobs);
    if (e.empty()) return false;
    jobs_.push_back(copyOf(e));
  }
  if (!jr.ok() || !jr.atEnd()) return false;

  sim::ByteReader qr(sec[sectionIndex(ImageSection::kQueue)]);
  const std::uint64_t nq = qr.u64();
  queue_.clear();
  for (std::uint64_t i = 0; i < nq && qr.ok(); ++i) queue_.push_back(qr.u32());
  if (!qr.ok() || !qr.atEnd()) return false;

  const std::span<const std::byte> lines =
      sec[sectionIndex(ImageSection::kTimeline)];
  sim::ByteReader lr(lines);
  lines_ = lr.u64();
  if (!lr.ok()) return false;
  timeline_ = copyOf(lines.subspan(8));

  const std::span<const std::byte> stream =
      sec[sectionIndex(ImageSection::kRasStream)];
  sim::ByteReader sr(stream);
  events_ = sr.u64();
  if (!sr.ok() ||
      stream.size() - 8 != events_ * RasAggregator::kEventBytes) {
    return false;
  }
  stream_ = copyOf(stream.subspan(8));
  return true;
}

bool ImageReplay::apply(std::span<const std::byte> record) {
  // Parse the whole record first; state changes only once it checks out.
  sim::ByteReader r(record);
  const auto framed = [&r] { return r.view(r.u32()); };

  const std::span<const std::byte> head = framed();

  std::vector<std::pair<std::size_t, std::span<const std::byte>>> jobs;
  std::size_t jobCount = jobs_.size();
  const std::uint32_t nj = r.u32();
  for (std::uint32_t i = 0; i < nj && r.ok(); ++i) {
    const std::span<const std::byte> e = nextJobEntry(r, record);
    if (e.empty()) return false;
    const JobId id = sim::ByteReader(e).u32();
    if (id == 0 || id - 1 > jobCount) return false;
    if (id - 1 == jobCount) ++jobCount;
    jobs.emplace_back(id - 1, e);
  }

  std::vector<std::uint32_t> removed;
  const std::uint32_t nrm = r.u32();
  for (std::uint32_t i = 0; i < nrm && r.ok(); ++i) {
    const std::uint32_t pos = r.u32();
    if (pos >= queue_.size() || (!removed.empty() && pos <= removed.back())) {
      return false;
    }
    removed.push_back(pos);
  }
  const std::uint32_t nadd = r.u32();
  sim::ByteReader added(r.view(4 * static_cast<std::size_t>(nadd)));

  const std::span<const std::byte> tables = framed();

  const std::uint32_t nl = r.u32();
  const std::size_t linesAt = r.pos();
  for (std::uint32_t i = 0; i < nl && r.ok(); ++i) r.view(r.u64());
  const std::span<const std::byte> lines =
      record.subspan(linesAt, r.pos() - linesAt);

  const std::span<const std::byte> rasState = framed();
  const std::uint32_t drop = r.u32();
  const std::uint32_t ne = r.u32();
  const std::span<const std::byte> events =
      r.view(static_cast<std::size_t>(ne) * RasAggregator::kEventBytes);
  const std::span<const std::byte> accounting = framed();
  if (!r.ok() || !r.atEnd() || drop > events_) return false;

  head_ = copyOf(head);
  for (const auto& [index, e] : jobs) {
    if (index == jobs_.size()) {
      jobs_.push_back(copyOf(e));
    } else {
      jobs_[index] = copyOf(e);
    }
  }
  std::vector<std::uint32_t> queue;
  queue.reserve(queue_.size() - removed.size() + nadd);
  std::size_t k = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (k < removed.size() && removed[k] == i) {
      ++k;
    } else {
      queue.push_back(queue_[i]);
    }
  }
  for (std::uint32_t i = 0; i < nadd; ++i) queue.push_back(added.u32());
  queue_ = std::move(queue);
  tables_ = copyOf(tables);
  lines_ += nl;
  timeline_.insert(timeline_.end(), lines.begin(), lines.end());
  rasState_ = copyOf(rasState);
  stream_.erase(stream_.begin(),
                stream_.begin() + static_cast<std::ptrdiff_t>(
                                      drop * RasAggregator::kEventBytes));
  stream_.insert(stream_.end(), events.begin(), events.end());
  events_ = events_ - drop + ne;
  accounting_ = copyOf(accounting);
  return true;
}

std::vector<std::byte> ImageReplay::image() const {
  ImageWriter img;
  sim::ByteWriter& w = img.out();
  putBytes(w, head_);
  img.close();
  w.u64(jobs_.size());
  for (const std::vector<std::byte>& e : jobs_) putBytes(w, e);
  img.close();
  w.u64(queue_.size());
  for (std::uint32_t id : queue_) w.u32(id);
  img.close();
  putBytes(w, tables_);
  img.close();
  w.u64(lines_);
  putBytes(w, timeline_);
  img.close();
  putBytes(w, rasState_);
  img.close();
  w.u64(events_);
  putBytes(w, stream_);
  img.close();
  putBytes(w, accounting_);
  img.close();
  return std::move(img).take();
}

}  // namespace bg::svc
