// Minimal ordered JSON document builder.
//
// Benches and the service-node metrics surface export machine-readable
// results (BENCH_*.json trajectory, bench_jobstream) without an
// external JSON dependency. Insertion order is preserved so emitted
// documents diff cleanly across runs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bg::sim {

class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), num_(b ? 1.0 : 0.0) {}
  Json(double d) : kind_(Kind::kNumber), num_(d) {}
  Json(int i) : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}
  Json(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  /// Unsigned values keep their own kind so counters and 64-bit hashes
  /// above INT64_MAX print as themselves, not as negative numbers.
  Json(std::uint64_t u) : kind_(Kind::kUint), uint_(u) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  /// Object insert/overwrite (keeps first-insertion order).
  Json& set(const std::string& key, Json value);
  /// Array append; returns the appended element.
  Json& push(Json value);

  /// Serialize. indent > 0 pretty-prints; 0 emits one line.
  std::string dump(int indent = 2) const;

  /// dump() to a file; returns false on I/O error.
  bool writeFile(const std::string& path, int indent = 2) const;

 private:
  enum class Kind {
    kNull, kBool, kNumber, kInt, kUint, kString, kObject, kArray
  };

  void dumpTo(std::string& out, int indent, int depth) const;
  static void appendEscaped(std::string& out, const std::string& s);

  Kind kind_;
  double num_ = 0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;  // object
  std::vector<Json> elements_;                         // array
};

}  // namespace bg::sim
