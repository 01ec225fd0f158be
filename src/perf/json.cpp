#include "perf/json.hpp"

#include <cmath>
#include <cstdio>

#include "common/assert.hpp"

namespace basrpt::perf::json {

namespace {

/// Formats a double the way the records want it: integers (the common
/// case — counters, ns totals) print without a fractional part, and
/// everything else with enough digits to round-trip.
void append_number(std::string& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out += buf;
    return;
  }
  // Non-finite values are not representable in JSON; the writers never
  // produce them, but a defensive null beats emitting "inf".
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

double Value::as_number() const {
  BASRPT_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  BASRPT_REQUIRE(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

const std::vector<Value>& Value::items() const {
  BASRPT_REQUIRE(kind_ == Kind::kArray, "JSON value is not an array");
  return items_;
}

void Value::push(Value v) {
  BASRPT_REQUIRE(kind_ == Kind::kArray, "push on a non-array JSON value");
  items_.push_back(std::move(v));
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  BASRPT_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  return members_;
}

const Value* Value::find(const std::string& key) const {
  BASRPT_REQUIRE(kind_ == Kind::kObject,
                 "member lookup on a non-object JSON value");
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  BASRPT_REQUIRE(v != nullptr, "missing JSON member '" + key + "'");
  return *v;
}

void Value::set(const std::string& key, Value v) {
  BASRPT_REQUIRE(kind_ == Kind::kObject, "set on a non-object JSON value");
  for (auto& [name, value] : members_) {
    if (name == key) {
      value = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

void Value::serialize_to(std::string& out, int indent, int depth) const {
  const auto newline_at = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      append_number(out, number_);
      return;
    case Kind::kString:
      append_escaped(out, string_);
      return;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      bool first = true;
      for (const Value& v : items_) {
        if (!first) {
          out += ',';
        }
        first = false;
        newline_at(depth + 1);
        v.serialize_to(out, indent, depth + 1);
      }
      newline_at(depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [name, value] : members_) {
        if (!first) {
          out += ',';
        }
        first = false;
        newline_at(depth + 1);
        append_escaped(out, name);
        out += ':';
        if (indent > 0) {
          out += ' ';
        }
        value.serialize_to(out, indent, depth + 1);
      }
      newline_at(depth);
      out += '}';
      return;
    }
  }
}

std::string Value::serialize(int indent) const {
  std::string out;
  serialize_to(out, indent, 0);
  if (indent > 0) {
    out += '\n';  // files end with a newline, like every text artifact here
  }
  return out;
}

}  // namespace basrpt::perf::json
