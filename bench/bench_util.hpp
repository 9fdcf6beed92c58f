// Shared helpers for the benchmark harnesses.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "cnk/fship_client.hpp"
#include "io/ciod.hpp"
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

/// The strict command line of one bench: a table of flags from which
/// parsing, the `--help` usage and every error message come.
/// `--json PATH` and `--help` are built in. A switch sets its bool; a
/// valued flag takes the next argument, which must not start with `--`
/// and must parse in full as the destination's type (a number must
/// not be negative).
class Args {
 public:
  /// `name` prefixes every error; `jsonHelp` says what `--json` writes.
  Args(const char* name, const char* jsonHelp) : name_(name) {
    value("--json", &json_, "PATH", jsonHelp);
  }
  Args(const Args&) = delete;
  Args& operator=(const Args&) = delete;

  /// A switch: `flag` sets *dst to true.
  Args& flag(const char* flag, bool* dst, const char* help) {
    entries_.push_back({flag, nullptr, help, [dst](const char*) {
                          *dst = true;
                          return true;
                        }});
    return *this;
  }

  /// A valued flag: `flag VALUE` stores VALUE, parsed as T, in *dst.
  template <class T>
  Args& value(const char* flag, T* dst, const char* metavar,
              const char* help) {
    entries_.push_back({flag, metavar, help,
                        [dst](const char* v) { return parseValue(v, dst); }});
    return *this;
  }

  /// Returns the exit code to stop with (0 after `--help`; 2 with the
  /// reason and usage on stderr on an unknown flag or a missing or
  /// malformed value), or -1 when the bench should run.
  int parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help") {
        std::fputs(usage().c_str(), stdout);
        return 0;
      }
      const auto e =
          std::find_if(entries_.begin(), entries_.end(),
                       [&](const Entry& x) { return arg == x.flag; });
      const char* v = nullptr;
      if (e == entries_.end()) return fail("unknown argument", argv[i]);
      if (e->metavar != nullptr) {
        if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
          return fail("missing value for", argv[i]);
        }
        v = argv[++i];
      }
      if (!e->set(v)) return fail("invalid value in", argv[i - 1], v);
      e->given = true;
    }
    return -1;
  }

  /// The `--json` path, or nullptr when none was given.
  const char* json() const { return json_.empty() ? nullptr : json_.c_str(); }

  /// True when the command line named `flag` (so a preset such as
  /// `--quick` can leave it alone).
  bool given(std::string_view flag) const {
    return std::any_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
      return e.given && flag == e.flag;
    });
  }

 private:
  struct Entry {
    const char* flag;
    const char* metavar;  // nullptr for a switch
    const char* help;
    std::function<bool(const char*)> set;
    bool given = false;
  };

  static bool parseValue(const char* v, std::string* dst) {
    *dst = v;
    return !dst->empty();
  }
  /// Every numeric flag is a count, a rate, a seed or a cycle span,
  /// so a leading `-` is rejected: from_chars would take "-5" for an
  /// int or a double.
  template <class T>
  static bool parseValue(const char* v, T* dst) {
    if (*v == '-') return false;
    const char* end = v + std::strlen(v);
    const auto [ptr, ec] = std::from_chars(v, end, *dst);
    return ec == std::errc() && ptr == end && ptr != v;
  }

  static std::string label(const char* flag, const char* metavar) {
    return metavar == nullptr ? flag : std::string(flag) + " " + metavar;
  }

  std::string usage() const {
    std::size_t width = std::strlen("--help");
    for (const Entry& e : entries_) {
      width = std::max(width, label(e.flag, e.metavar).size());
    }
    std::string out = std::string("usage: ") + name_ + " [options]\n";
    const auto row = [&](const std::string& l, const char* help) {
      out += "  " + l + std::string(width + 2 - l.size(), ' ') + help + '\n';
    };
    for (const Entry& e : entries_) row(label(e.flag, e.metavar), e.help);
    row("--help", "print this message and exit");
    return out;
  }

  int fail(const char* reason, const char* flag,
           const char* value = nullptr) const {
    std::fprintf(stderr, "%s: %s '%s%s%s'\n", name_, reason, flag,
                 value != nullptr ? " " : "", value != nullptr ? value : "");
    std::fputs(usage().c_str(), stderr);
    return 2;
  }

  const char* name_;
  std::string json_;
  std::vector<Entry> entries_;
};

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

/// The compute-node side of function-shipped I/O as JSON.
inline sim::Json fshipJson(const cnk::FshipStats& f) {
  sim::Json j = sim::Json::object();
  j.set("requests", f.requests);
  j.set("retransmits", f.retransmits);
  j.set("timeouts", f.timeouts);
  j.set("duplicate_replies", f.duplicateReplies);
  j.set("corrupt_replies", f.corruptReplies);
  j.set("eio_returns", f.eioReturns);
  j.set("rehomes", f.rehomes);
  j.set("restores_sent", f.restoresSent);
  return j;
}

/// The I/O-node daemon side of function-shipped I/O as JSON.
inline sim::Json ciodJson(const io::CiodStats& c) {
  sim::Json j = sim::Json::object();
  j.set("requests", c.requests);
  j.set("errors", c.errors);
  j.set("bad_checksums", c.badChecksums);
  j.set("replays", c.replays);
  j.set("stale_drops", c.staleDrops);
  j.set("restores", c.restores);
  return j;
}

}  // namespace bg::bench
