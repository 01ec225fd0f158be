// Minimal JSON document model: the one JSON writer of the project.
//
// BENCH_*.json records, basrpt-profile-v1 breakdowns, the --metrics
// report and basrptd's SLO report are all built as Values and written by
// one deterministic serializer, so escaping and number formatting live
// in one place: integers print exactly, everything else with %.17g
// (enough digits for any reader to recover the exact double). Object member order is
// insertion order. Reading records back is the regression gate's job
// (scripts/perf_gate.py).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace basrpt::perf::json {

class Value {
 public:
  Value() = default;  // null
  static Value boolean(bool b);
  static Value number(double v);
  static Value string(std::string s);
  static Value array();
  static Value object();

  /// Typed accessors; throw ConfigError on kind mismatch so callers
  /// reading a document back get a diagnosable error, not garbage.
  double as_number() const;
  const std::string& as_string() const;

  /// Array access.
  const std::vector<Value>& items() const;
  void push(Value v);

  /// Object access, insertion order preserved. find() returns null when
  /// the key is absent; at() throws ConfigError naming the key.
  const std::vector<std::pair<std::string, Value>>& members() const;
  const Value* find(const std::string& key) const;
  const Value& at(const std::string& key) const;
  void set(const std::string& key, Value v);

  /// Serializes deterministically. `indent` == 0 is compact one-line;
  /// > 0 pretty-prints with that many spaces per level (records on disk
  /// use 2 so diffs of committed baselines stay reviewable).
  std::string serialize(int indent = 0) const;

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  void serialize_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

}  // namespace basrpt::perf::json
