#include "svc/ras.hpp"

namespace bg::svc {
namespace {
constexpr sim::Cycle kLinkWindowCycles = 2'000'000;  // link-sick window
}  // namespace

RasAggregator::RasAggregator(RasAggregatorConfig cfg) : cfg_(cfg) {}

void RasAggregator::attach(int node, kernel::KernelBase* k) {
  sources_.push_back(Source{node, k, k->rasNextSeq(), 0, {}, {}});
}

void RasAggregator::injectNodeFailure(int node, std::uint64_t detail) {
  for (Source& s : sources_) {
    if (s.node == node) {
      s.kernel->logRas(kernel::RasEvent::Code::kNodeFailure,
                       kernel::RasEvent::Severity::kFatal, 0, 0, detail);
      return;
    }
  }
}

void RasAggregator::reportLocal(kernel::RasEvent e) {
  ++bySeverity_[static_cast<std::size_t>(e.severity)];
  ++byCode_[static_cast<std::size_t>(e.code)];
  if (!admit(e)) return;
  stream_.push_back(SvcRasEvent{-1, e});
  ++accepted_;
  while (stream_.size() > cfg_.streamCapacity) {
    stream_.pop_front();
    ++streamDropped_;
  }
}

bool RasAggregator::admit(const kernel::RasEvent& e) {
  if (e.severity == kernel::RasEvent::Severity::kFatal) return true;
  CodeWindow& w = windows_[static_cast<std::size_t>(e.code)];
  if (e.cycle >= w.windowStart + cfg_.throttleWindowCycles) {
    w.windowStart = e.cycle;
    w.inWindow = 0;
  }
  if (w.inWindow >= cfg_.maxPerCodePerWindow) {
    ++throttled_;
    return false;
  }
  ++w.inWindow;
  return true;
}

void RasAggregator::noteWarn(Source& src, const kernel::RasEvent& e) {
  if (cfg_.warnDrainThreshold == 0) return;
  src.warnCycles.push_back(e.cycle);
  const sim::Cycle floor =
      e.cycle >= cfg_.warnWindowCycles ? e.cycle - cfg_.warnWindowCycles : 0;
  while (!src.warnCycles.empty() && src.warnCycles.front() <= floor) {
    src.warnCycles.pop_front();
  }
  if (src.warnCycles.size() >= cfg_.warnDrainThreshold && onWarnStorm_) {
    src.warnCycles.clear();  // one storm, one report
    onWarnStorm_(src.node, e.cycle);
  }
}

void RasAggregator::noteLinkWarn(Source& src, const kernel::RasEvent& e) {
  if (cfg_.linkSickThreshold == 0) return;
  src.linkWarnCycles.push_back(e.cycle);
  const sim::Cycle floor =
      e.cycle >= kLinkWindowCycles ? e.cycle - kLinkWindowCycles : 0;
  while (!src.linkWarnCycles.empty() && src.linkWarnCycles.front() <= floor) {
    src.linkWarnCycles.pop_front();
  }
  if (src.linkWarnCycles.size() >= cfg_.linkSickThreshold && onLinkSick_) {
    src.linkWarnCycles.clear();  // one retry storm, one report
    onLinkSick_(src.node, e.cycle, /*dead=*/false);
  }
}

std::size_t RasAggregator::poll(sim::Cycle now) {
  (void)now;
  std::size_t stored = 0;
  for (Source& src : sources_) {
    const auto& log = src.kernel->rasLog();
    for (const kernel::RasEvent& e : log) {
      if (e.seq < src.nextSeq) continue;
      // A jump in seq means the ring evicted entries we never saw.
      src.missed += e.seq - src.nextSeq;
      src.nextSeq = e.seq + 1;
      // Severity/code tallies count every event the service node saw,
      // throttled or not — the stream is what's bounded, not the
      // statistics.
      ++bySeverity_[static_cast<std::size_t>(e.severity)];
      ++byCode_[static_cast<std::size_t>(e.code)];
      if (admit(e)) {
        stream_.push_back(SvcRasEvent{src.node, e});
        ++accepted_;
        ++stored;
        while (stream_.size() > cfg_.streamCapacity) {
          stream_.pop_front();
          ++streamDropped_;
        }
      }
      if (e.severity == kernel::RasEvent::Severity::kWarn) {
        noteWarn(src, e);
      }
      if (e.severity == kernel::RasEvent::Severity::kFatal && onFatal_) {
        onFatal_(src.node, e);
      }
      if (e.code == kernel::RasEvent::Code::kIoNodeDead && onIoDead_) {
        onIoDead_(src.node, e);
      }
      if (e.code == kernel::RasEvent::Code::kLinkDead && onLinkSick_) {
        onLinkSick_(src.node, e.cycle, /*dead=*/true);
      }
      if (e.code == kernel::RasEvent::Code::kLinkDegraded) {
        noteLinkWarn(src, e);
      }
    }
    // Events the kernel ring dropped between polls never appear in the
    // loop above; the seq-based cursor steps over the gap and
    // dropped() reports the loss.
  }
  return stored;
}

std::uint32_t RasAggregator::warnsInWindow(int node) const {
  for (const Source& s : sources_) {
    if (s.node == node) return static_cast<std::uint32_t>(s.warnCycles.size());
  }
  return 0;
}

void RasAggregator::clearWarns(int node) {
  for (Source& s : sources_) {
    if (s.node == node) s.warnCycles.clear();
  }
}

std::uint64_t RasAggregator::dropped() const {
  std::uint64_t sum = streamDropped_;
  for (const Source& s : sources_) sum += s.missed;
  return sum;
}

void RasAggregator::encodeEvent(sim::ByteWriter& w, const SvcRasEvent& e) {
  w.u32(static_cast<std::uint32_t>(e.node));
  w.u64(e.event.cycle);
  w.u8(static_cast<std::uint8_t>(e.event.code));
  w.u8(static_cast<std::uint8_t>(e.event.severity));
  w.u32(e.event.pid);
  w.u32(e.event.tid);
  w.u64(e.event.detail);
  w.u64(e.event.seq);
}

void RasAggregator::saveStateTo(sim::ByteWriter& w) const {
  w.u64(sources_.size());
  for (const Source& s : sources_) {
    w.u32(static_cast<std::uint32_t>(s.node));
    w.u64(s.nextSeq);
    w.u64(s.missed);
    w.u64(s.warnCycles.size());
    for (sim::Cycle c : s.warnCycles) w.u64(c);
    w.u64(s.linkWarnCycles.size());
    for (sim::Cycle c : s.linkWarnCycles) w.u64(c);
  }
  for (const CodeWindow& cw : windows_) {
    w.u64(cw.windowStart);
    w.u32(cw.inWindow);
  }
  for (std::uint64_t v : bySeverity_) w.u64(v);
  for (std::uint64_t v : byCode_) w.u64(v);
  w.u64(accepted_);
  w.u64(throttled_);
  w.u64(streamDropped_);
}

void RasAggregator::saveStreamTo(sim::ByteWriter& w) const {
  w.u64(stream_.size());
  for (const SvcRasEvent& se : stream_) encodeEvent(w, se);
}

bool RasAggregator::loadFrom(sim::ByteReader& r) {
  const std::uint64_t n = r.u64();
  if (n != sources_.size()) return false;
  for (Source& s : sources_) {
    const int node = static_cast<int>(r.u32());
    if (node != s.node) return false;
    s.nextSeq = r.u64();
    s.missed = r.u64();
    s.warnCycles.clear();
    const std::uint64_t wn = r.u64();
    for (std::uint64_t i = 0; i < wn && r.ok(); ++i) {
      s.warnCycles.push_back(r.u64());
    }
    s.linkWarnCycles.clear();
    const std::uint64_t ln = r.u64();
    for (std::uint64_t i = 0; i < ln && r.ok(); ++i) {
      s.linkWarnCycles.push_back(r.u64());
    }
  }
  for (CodeWindow& cw : windows_) {
    cw.windowStart = r.u64();
    cw.inWindow = r.u32();
  }
  for (std::uint64_t& v : bySeverity_) v = r.u64();
  for (std::uint64_t& v : byCode_) v = r.u64();
  accepted_ = r.u64();
  throttled_ = r.u64();
  streamDropped_ = r.u64();
  stream_.clear();
  const std::uint64_t sn = r.u64();
  for (std::uint64_t i = 0; i < sn && r.ok(); ++i) {
    SvcRasEvent se;
    se.node = static_cast<int>(r.u32());
    se.event.cycle = r.u64();
    se.event.code = static_cast<kernel::RasEvent::Code>(r.u8());
    se.event.severity = static_cast<kernel::RasEvent::Severity>(r.u8());
    se.event.pid = r.u32();
    se.event.tid = r.u32();
    se.event.detail = r.u64();
    se.event.seq = r.u64();
    stream_.push_back(se);
  }
  return r.ok();
}

}  // namespace bg::svc
