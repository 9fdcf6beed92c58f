#include <algorithm>
#include <vector>

#include "suite.hpp"

namespace bg::suite {

namespace {

constexpr const char* kLabelNames[kNumLabels] = {
    "rt.setup", "rt.boot",   "rt.load",     "runtime",  "hw.net",  "svc.submit",
    "svc.ckpt", "svc.restart", "cnk.ckpt", "io.fship", "hw.core",
};

}  // namespace

const char* labelName(Label l) { return kLabelNames[static_cast<int>(l)]; }

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::begin(Label l) { stack_.push_back(Frame{nowNs(), 0, l}); }

void Tracer::end() {
  close(nowNs(), stack_.back().label, true);
}

void Tracer::close(std::int64_t t, Label label, bool phase) {
  const Frame f = stack_.back();
  stack_.pop_back();
  const Span s{f.start, t - f.start, label};
  selfNs_[static_cast<int>(label)] += s.dur - f.childNs;
  if (!stack_.empty()) {
    stack_.back().childNs += s.dur;
  } else if (phase) {
    phases_.push_back(s);
  }
  const auto later = [](const Span& a, const Span& b) { return a.dur > b.dur; };
  if (slowest_.size() < kSlowest) {
    slowest_.push_back(s);
    std::push_heap(slowest_.begin(), slowest_.end(), later);
  } else if (s.dur > slowest_.front().dur) {
    std::pop_heap(slowest_.begin(), slowest_.end(), later);
    slowest_.back() = s;
    std::push_heap(slowest_.begin(), slowest_.end(), later);
  }
}

bool Tracer::runEvents(sim::Engine& eng, const std::function<Label()>& classify,
                       const std::function<bool()>& done,
                       std::uint64_t limit) {
  // The predicate runs before the first event and after every event:
  // each call closes the span of the event that just ran and opens the
  // next one, so one clock read both ends and starts an event span.
  const std::size_t depth = stack_.size();
  const bool ok = eng.runWhile(
      [&] {
        const std::int64_t t = nowNs();
        if (stack_.size() > depth) close(t, classify(), false);
        if (done()) return true;
        stack_.push_back(Frame{t, 0, Label::kHwCore});
        return false;
      },
      limit);
  // A drained queue leaves one span open that no event ran in.
  if (stack_.size() > depth) stack_.pop_back();
  return ok;
}

double Tracer::selfSeconds(Label l) const {
  return static_cast<double>(selfNs_[static_cast<int>(l)]) * 1e-9;
}

sim::Json Tracer::chromeTrace() const {
  std::vector<Span> spans = phases_;
  spans.insert(spans.end(), slowest_.begin(), slowest_.end());
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.dur > b.dur;
  });
  spans.erase(std::unique(spans.begin(), spans.end(),
                          [](const Span& a, const Span& b) {
                            return a.start == b.start && a.dur == b.dur &&
                                   a.label == b.label;
                          }),
              spans.end());
  sim::Json events = sim::Json::array();
  for (const Span& s : spans) {
    sim::Json e = sim::Json::object();
    e.set("name", labelName(s.label));
    e.set("cat", "bench_suite");
    e.set("ph", "X");
    e.set("ts", static_cast<double>(s.start) * 1e-3);
    e.set("dur", static_cast<double>(s.dur) * 1e-3);
    e.set("pid", 1);
    e.set("tid", 1);
    events.push(std::move(e));
  }
  sim::Json doc = sim::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

double microNsPerEvent() {
  // The events-micro mix of bench_simperf: dense self-rescheduling
  // chains (calendar ring), far-future events (heap tier), and a
  // decrementer-style cancel/re-arm churn. Median of three passes.
  std::vector<double> ns;
  for (int pass = 0; pass < 3; ++pass) {
    sim::Engine e;
    struct Chain {
      sim::Engine* e;
      sim::Cycle delay;
      std::uint64_t remaining;
      void fire() {
        if (--remaining == 0) return;
        e->schedule(delay, [this] { fire(); });
      }
    };
    constexpr int kChains = 64;
    std::vector<Chain> chains(kChains);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kChains; ++i) {
      chains[i] = Chain{&e, static_cast<sim::Cycle>(1 + i % 7), 50'000};
      e.schedule(static_cast<sim::Cycle>(i), [c = &chains[i]] { c->fire(); });
    }
    for (int i = 0; i < 1024; ++i) {
      e.schedule(1'000'000 + static_cast<sim::Cycle>(i) * 997, [] {});
    }
    for (int i = 0; i < 20'000; ++i) {
      e.cancel(e.schedule(2'000'000 + static_cast<sim::Cycle>(i), [] {}));
    }
    e.run();
    const double sec =
        std::chrono::duration<double>(Clock::now() - t0).count();
    ns.push_back(sec * 1e9 / static_cast<double>(e.eventsProcessed()));
  }
  std::sort(ns.begin(), ns.end());
  return ns[1];
}

}  // namespace bg::suite
