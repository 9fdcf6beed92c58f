// Shared helpers for the benchmark harnesses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <numeric>
#include <vector>

#include "sim/json.hpp"
#include "sim/types.hpp"

namespace bg::bench {

struct Stats {
  std::uint64_t n = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0;
  double stddev = 0;
};

inline Stats computeStats(const std::vector<std::uint64_t>& v) {
  Stats s;
  if (v.empty()) return s;
  s.n = v.size();
  s.min = *std::min_element(v.begin(), v.end());
  s.max = *std::max_element(v.begin(), v.end());
  s.mean = std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
  double var = 0;
  for (std::uint64_t x : v) {
    const double d = static_cast<double>(x) - s.mean;
    var += d * d;
  }
  s.stddev = std::sqrt(var / static_cast<double>(v.size()));
  return s;
}

inline double pct(std::uint64_t delta, std::uint64_t base) {
  return 100.0 * static_cast<double>(delta) / static_cast<double>(base);
}

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
/// Copies + sorts; fine at bench scale. Returns 0 for an empty sample.
inline std::uint64_t percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size());
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.5) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

inline void printRule() {
  std::printf("--------------------------------------------------------------------------\n");
}

inline sim::Json statsToJson(const Stats& s) {
  sim::Json j = sim::Json::object();
  j.set("n", s.n);
  j.set("min", s.min);
  j.set("max", s.max);
  j.set("mean", s.mean);
  j.set("stddev", s.stddev);
  if (s.min > 0) j.set("spread_pct", pct(s.max - s.min, s.min));
  return j;
}

/// One boolean flag of a strict bench command line: `name` sets *value.
struct BoolFlag {
  const char* name;
  bool* value;
};

/// The strict command line of a bench that takes only its boolean
/// `flags`, `--json <path>` and `--help`. `--help` prints `usage` to
/// stdout; an unknown argument or a `--json` without a value prints the
/// reason and `usage` to stderr. Returns the exit code to stop with (0
/// or 2), or -1 when the bench should run.
inline int parseFlagArgs(int argc, char** argv, const char* name,
                         const char* usage,
                         std::initializer_list<BoolFlag> flags,
                         const char** jsonPath) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(usage, stdout);
      return 0;
    }
    const BoolFlag* flag = std::find_if(
        flags.begin(), flags.end(),
        [&](const BoolFlag& f) { return std::strcmp(argv[i], f.name) == 0; });
    if (flag != flags.end()) {
      *flag->value = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      *jsonPath = argv[++i];
    } else {
      std::fprintf(stderr, "%s: %s '%s'\n", name,
                   std::strcmp(argv[i], "--json") == 0 ? "missing value for"
                                                       : "unknown argument",
                   argv[i]);
      std::fputs(usage, stderr);
      return 2;
    }
  }
  return -1;
}

/// Returns the path following a `--json` flag, or nullptr.
inline const char* jsonPathArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return nullptr;
}

/// Writes `j` to `path` (when non-null) and reports on stdout/stderr.
/// Returns false only on a write failure.
inline bool maybeWriteJson(const char* path, const sim::Json& j) {
  if (path == nullptr) return true;
  if (!j.writeFile(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return false;
  }
  std::printf("wrote %s\n", path);
  return true;
}

}  // namespace bg::bench
