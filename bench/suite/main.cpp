// bench_suite: one workload of the repository benchmark per process.
//
//   bench_suite --workload <name> --seed <n> [--seconds <s>] [--trace]
//               [--json <path>] [--chrome <path>]
//   bench_suite --smoke
//
// After one warm-up, untraced fresh-Cluster repetitions fill --seconds.
// The machine-speed probe runs before the first and after every
// repetition, and each repetition's host and set-up times are divided
// by its slowdown (the mean probe time around it over the reference
// probe time): host_ref_s and setup_s are the medians of those times at
// the reference speed, so the host's speed swings cancel while the
// simulator's own speed shows in full. --trace adds one traced
// repetition for the per-layer metrics; its simulated results must
// equal the untraced ones. --smoke runs every workload at a reduced
// size, untraced then traced, and fails on any digest mismatch or
// invariant violation. Exit codes: 0 correct, 2 usage, 3 a violated
// invariant or failed op. run_suite.py builds this binary, runs it and
// checks the seed-42 witnesses.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "suite.hpp"

namespace {

using namespace bg;
using namespace bg::suite;

constexpr std::size_t kMaxReps = 64;

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bench_suite --workload <name> --seed <n> "
               "[--seconds <s>] [--trace] [--json <path>] [--chrome <path>]\n"
               "       bench_suite --smoke\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(to, " %s", w.name);
  std::fprintf(to, "\n");
}

[[noreturn]] void badUsage(const char* why, const char* arg) {
  std::fprintf(stderr, "bench_suite: %s%s%s\n", why, arg ? ": " : "",
               arg ? arg : "");
  usage(stderr);
  std::exit(2);
}

bool parseU64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Every rep of one process must reproduce the first: same digest,
/// same simulated cycles, same op latencies.
void checkReplay(const Rep& first, const Rep& other, const char* what,
                 std::vector<std::string>* violations) {
  if (other.digest != first.digest || other.simCycles != first.simCycles ||
      other.opCycles != first.opCycles) {
    violations->push_back(std::string(what) + " digest " + hex(other.digest) +
                          " != " + hex(first.digest));
  }
}

sim::Json metricJson(double value, const char* unit) {
  sim::Json m = sim::Json::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

int smoke() {
  bool ok = true;
  for (const Workload& w : workloads()) {
    const Rep plain = w.run(42, true, nullptr);
    Tracer tracer;
    const Rep traced = w.run(42, true, &tracer);
    std::vector<std::string> violations = plain.violations;
    violations.insert(violations.end(), traced.violations.begin(),
                      traced.violations.end());
    checkReplay(plain, traced, "traced", &violations);
    std::printf("%-10s digest %s  ops %zu  %s\n", w.name,
                hex(plain.digest).c_str(), plain.opCycles.size(),
                violations.empty() ? "ok" : "FAILED");
    for (const std::string& v : violations) std::printf("  %s\n", v.c_str());
    ok = ok && violations.empty() && plain.opsFailed == 0;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process, so repetitions after the warm-up
  // reuse mapped pages instead of faulting them in again: on a
  // virtualized host that fault path is the noisiest cost of set-up.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string workload, jsonPath, chromePath;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 28;
  bool haveSeed = false, trace = false, smokeRun = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        badUsage("missing value for", argv[i]);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      if (!parseU64(value(), &seed)) badUsage("bad --seed", argv[i]);
      haveSeed = true;
    } else if (a == "--seconds") {
      if (!parseU64(value(), &seconds) || seconds == 0) {
        badUsage("bad --seconds", argv[i]);
      }
    } else if (a == "--json") {
      jsonPath = value();
    } else if (a == "--chrome") {
      chromePath = value();
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--smoke") {
      smokeRun = true;
    } else {
      badUsage("unknown argument", argv[i]);
    }
  }
  if (smokeRun) {
    if (argc != 2) badUsage("--smoke takes no other arguments", nullptr);
    return smoke();
  }
  const Workload* w = findWorkload(workload);
  if (w == nullptr) badUsage("unknown or missing --workload", workload.c_str());
  if (!haveSeed) badUsage("missing --seed", nullptr);
  if (!chromePath.empty() && !trace) badUsage("--chrome needs --trace", nullptr);

  // The first repetition warms the allocator, the caches and lazy
  // set-up; it is checked but not timed. peak_rss_mb is read after it,
  // so it does not depend on how many repetitions fit. Timed
  // repetitions then fill --seconds, counted from the start with the
  // probes included: another one starts while it would end less than
  // half a repetition past the budget.
  const Clock::time_point start = Clock::now();
  const Rep first = w->run(seed, false, nullptr);
  const double rssMb = peakRssMb();
  std::vector<std::string> violations = first.violations;
  std::vector<double> hostSec, hostRefSec, slowdowns, setupSec, setupRefSec;
  probeSeconds();  // warm-up
  double probe = probeSeconds();
  const auto slowdownSince = [&probe] {
    const double next = probeSeconds();
    const double s = 0.5 * (probe + next) / kProbeRefSec;
    probe = next;
    return s;
  };
  double elapsed = 0;
  do {
    const Rep r = w->run(seed, false, nullptr);
    const double slowdown = slowdownSince();
    hostSec.push_back(r.hostSec);
    hostRefSec.push_back(r.hostSec / slowdown);
    slowdowns.push_back(slowdown);
    setupSec.push_back(r.setupSec);
    setupRefSec.push_back(r.setupSec / slowdown);
    checkReplay(first, r, ("rep " + std::to_string(hostSec.size())).c_str(),
                &violations);
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed * (1.0 + 0.5 / static_cast<double>(hostSec.size() + 1)) <
               static_cast<double>(seconds) &&
           hostSec.size() < kMaxReps);
  const double host = median(hostSec);
  const double hostRef = median(hostRefSec);
  const double slowdown = median(slowdowns);
  const double setupWall = median(setupSec);
  const double setup = median(setupRefSec);
  const double p50 = static_cast<double>(bench::percentile(first.opCycles, 50));
  const double p99 = static_cast<double>(bench::percentile(first.opCycles, 99));
  const std::uint64_t ops = first.opCycles.size() + first.opsFailed;

  std::printf("workload %s  seed %llu  reps %zu (+1 warm-up)  digest %s\n",
              w->name, static_cast<unsigned long long>(seed), hostSec.size(),
              hex(first.digest).c_str());
  sim::Json e2e = sim::Json::object();
  const auto put = [&e2e](const char* name, double v, const char* unit,
                          const char* note) {
    std::printf("  %-22s %16.6f %-8s %s\n", name, v, unit, note);
    e2e.set(name, metricJson(v, unit));
  };
  const std::string repNote =
      "median of " + std::to_string(hostSec.size()) + " reps; wall " +
      std::to_string(host) + " s, slowdown " + std::to_string(slowdown);
  const std::string setupNote =
      "median of " + std::to_string(setupSec.size()) + " set-ups; wall " +
      std::to_string(setupWall) + " s";
  const std::string opNote = "n=" + std::to_string(first.opCycles.size());
  put("host_ref_s", hostRef, "s", repNote.c_str());
  put("sim_mcycles_per_ref_s",
      static_cast<double>(first.simCycles) / hostRef / 1e6, "Mcyc/s", "");
  put("setup_s", setup, "s", setupNote.c_str());
  put("peak_rss_mb", rssMb, "MB", "");
  put("sim_cycles", static_cast<double>(first.simCycles), "cycles", "");
  put("sim_op_p50_cycles", p50, "cycles", opNote.c_str());
  put("sim_op_p99_cycles", p99, "cycles", opNote.c_str());
  std::printf("  %-22s %16.6f %-8s ops=%llu failed=%llu\n", "op_fail_ratio",
              static_cast<double>(first.opsFailed) / static_cast<double>(ops),
              "ratio", static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(first.opsFailed));

  sim::Json layers = sim::Json::object();
  if (trace) {
    Tracer tracer;
    const Rep traced = w->run(seed, false, &tracer);
    const double tracedRef = traced.hostSec / slowdownSince();
    violations.insert(violations.end(), traced.violations.begin(),
                      traced.violations.end());
    checkReplay(first, traced, "traced rep", &violations);
    std::vector<Metric> ms = traced.layers;
    ms.insert(ms.begin() + 1, Metric{"sim.micro_ns_per_event", "ns",
                                     microNsPerEvent()});
    ms.push_back({"host.wall_s", "s", host});
    ms.push_back({"host.setup_wall_s", "s", setupWall});
    ms.push_back({"host.slowdown", "ratio", slowdown});
    double covered = 0;
    for (int l = 0; l < kNumLabels; ++l) {
      const Label label = static_cast<Label>(l);
      const double self = tracer.selfSeconds(label);
      if (label != Label::kRtSetup) covered += self;
      ms.push_back({std::string(labelName(label)) + ".self_s", "s", self});
    }
    ms.push_back({"trace.overhead_pct", "%", 100.0 * (tracedRef / hostRef - 1)});
    ms.push_back({"trace.coverage_pct", "%", 100.0 * covered / traced.hostSec});
    std::printf("traced rep: wall %.6f s\n", traced.hostSec);
    for (const Metric& m : ms) {
      std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      layers.set(m.name, metricJson(m.value, m.unit.c_str()));
    }
    if (!chromePath.empty() &&
        !bench::maybeWriteJson(chromePath.c_str(), tracer.chromeTrace())) {
      return 1;
    }
  }

  const bool correct = violations.empty() && first.opsFailed == 0;
  for (const std::string& v : violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  sim::Json j = sim::Json::object();
  j.set("workload", w->name);
  j.set("seed", seed);
  j.set("reps", static_cast<std::uint64_t>(hostSec.size()));
  j.set("correct", correct);
  j.set("digest", hex(first.digest));
  j.set("ops", ops);
  j.set("ops_failed", first.opsFailed);
  sim::Json samples = sim::Json::object();
  const auto array = [](const std::vector<double>& vs) {
    sim::Json a = sim::Json::array();
    for (double v : vs) a.push(v);
    return a;
  };
  samples.set("host_s", array(hostSec));
  samples.set("slowdown", array(slowdowns));
  samples.set("setup_s", array(setupSec));
  j.set("samples", std::move(samples));
  j.set("end_to_end", std::move(e2e));
  if (trace) j.set("per_layer", std::move(layers));
  if (jsonPath.empty()) {
    std::printf("%s\n", j.dump(0).c_str());
  } else if (!bench::maybeWriteJson(jsonPath.c_str(), j)) {
    return 1;
  }
  return correct ? 0 : 3;
}
