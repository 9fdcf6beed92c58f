// The repository benchmark (bench_suite): four seeded workloads driven
// through the simulator's public API, each run as fresh-Cluster
// repetitions, plus an in-memory span tracer for the per-layer run.
//
// The suite only observes from outside: spans wrap the bench's own
// calls into the simulator, a hw::RuntimeIf decorator wraps every
// rtcall, and one span per engine event is cut in the Engine::runWhile
// predicate, which the engine calls after every event.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/kernel_if.hpp"
#include "sim/engine.hpp"
#include "sim/json.hpp"

namespace bg::suite {

using Clock = std::chrono::steady_clock;

/// Where a traced run attributes host time. Event spans take the
/// label of the public counter that advanced while they ran; kHwCore
/// is the residual (engine dispatch, core/VM, kernels).
enum class Label : std::uint8_t {
  kRtSetup,
  kRtBoot,
  kRtLoad,
  kRuntime,
  kHwNet,
  kSvcSubmit,
  kSvcCkpt,
  kSvcRestart,
  kCnkCkpt,
  kIoFship,
  kHwCore,
};
inline constexpr int kNumLabels = 11;
const char* labelName(Label l);

/// Nested host-time spans kept in memory: per-label self time, the
/// slowest spans, and every outermost phase span.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void begin(Label l);
  void end();

  /// Drive `eng` until done() holds (or the queue drains / `limit`
  /// events fire), one span per event labelled by classify().
  bool runEvents(sim::Engine& eng, const std::function<Label()>& classify,
                 const std::function<bool()>& done, std::uint64_t limit);

  double selfSeconds(Label l) const;
  /// Chrome trace-event JSON (Perfetto / chrome://tracing).
  sim::Json chromeTrace() const;

 private:
  struct Frame {
    std::int64_t start = 0;
    std::int64_t childNs = 0;
    Label label = Label::kHwCore;
  };
  struct Span {
    std::int64_t start = 0;
    std::int64_t dur = 0;
    Label label = Label::kHwCore;
  };
  static constexpr std::size_t kSlowest = 100;

  std::int64_t nowNs() const;
  void close(std::int64_t t, Label label, bool phase);

  Clock::time_point origin_;
  std::vector<Frame> stack_;
  std::array<std::int64_t, kNumLabels> selfNs_{};
  std::vector<Span> slowest_;  // min-heap on dur
  std::vector<Span> phases_;
};

/// RAII span; a no-op without a tracer (untraced repetitions).
class Scope {
 public:
  Scope(Tracer* t, Label l) : t_(t) {
    if (t_ != nullptr) t_->begin(l);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

/// Forwards every rtcall to the node's dispatcher inside a `runtime`
/// span. Attached with Node::attachRuntime; only the cores read it.
class TracedRuntime final : public hw::RuntimeIf {
 public:
  TracedRuntime(Tracer& tracer, hw::RuntimeIf& inner)
      : tracer_(tracer), inner_(inner) {}
  hw::HandlerResult rtcall(hw::Core& core, hw::ThreadCtx& t,
                           std::int64_t fnId) override {
    ++calls_;
    Scope s(&tracer_, Label::kRuntime);
    return inner_.rtcall(core, t, fnId);
  }
  std::uint64_t calls() const { return calls_; }

 private:
  Tracer& tracer_;
  hw::RuntimeIf& inner_;
  std::uint64_t calls_ = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// One fresh-Cluster repetition of a workload.
struct Rep {
  double setupSec = 0;  // input generation + Cluster/ServiceHost
  double hostSec = 0;   // first boot event to completion
  std::uint64_t simCycles = 0;
  std::vector<std::uint64_t> opCycles;  // simulated latency of each op
  std::uint64_t opsFailed = 0;
  std::uint64_t digest = 0;  // determinism witness
  std::vector<std::string> violations;
  std::vector<Metric> layers;  // public counters, traced reps only
};

struct Workload {
  const char* name;
  /// One repetition with inputs generated from `seed`; `smoke` shrinks
  /// it to the reduced size; `tracer` is null for untraced repetitions.
  Rep (*run)(std::uint64_t seed, bool smoke, Tracer* tracer);
};
const std::vector<Workload>& workloads();

/// Engine calibration: host ns per event of a chain / far-heap /
/// cancel-churn pattern driven through Engine's public API.
double microNsPerEvent();

/// Host seconds of one pass of the machine-speed probe, a fixed loop
/// independent of the simulator (calibrate.cpp).
double probeSeconds();
/// probeSeconds() on the reference host (a quiet 4-vCPU Intel Xeon VM):
/// a repetition's host time divided by (probe time / this) is its time
/// at the reference speed.
inline constexpr double kProbeRefSec = 0.255;

}  // namespace bg::suite
