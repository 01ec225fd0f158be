#include "common/cli.hpp"

#include <cstdio>
#include <set>
#include <sstream>

#include "common/assert.hpp"
#include "common/fields.hpp"

namespace basrpt {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

CliParser& CliParser::flag(const std::string& name, bool default_value,
                           const std::string& help) {
  require_unregistered(name);
  options_[name] = {Kind::kFlag, help, default_value ? "true" : "false"};
  order_.push_back(name);
  return *this;
}

CliParser& CliParser::integer(const std::string& name,
                              std::int64_t default_value,
                              const std::string& help) {
  require_unregistered(name);
  options_[name] = {Kind::kInteger, help, std::to_string(default_value)};
  order_.push_back(name);
  return *this;
}

CliParser& CliParser::real(const std::string& name, double default_value,
                           const std::string& help) {
  require_unregistered(name);
  std::ostringstream out;
  out << default_value;
  options_[name] = {Kind::kReal, help, out.str()};
  order_.push_back(name);
  return *this;
}

CliParser& CliParser::text(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  require_unregistered(name);
  options_[name] = {Kind::kText, help, default_value};
  order_.push_back(name);
  return *this;
}

void CliParser::require_unregistered(const std::string& name) const {
  BASRPT_REQUIRE(options_.count(name) == 0,
                 "option --" + name + " registered twice");
}

bool CliParser::parse(int argc, const char* const* argv) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage().c_str());
      return false;
    }
    BASRPT_REQUIRE(arg.rfind("--", 0) == 0,
                   "positional argument not supported: " + arg);
    arg = arg.substr(2);

    std::string name;
    std::optional<std::string> value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
    }

    // Boolean negation: --no-foo.
    bool negated = false;
    if (!options_.count(name) && name.rfind("no-", 0) == 0) {
      negated = true;
      name = name.substr(3);
    }

    auto it = options_.find(name);
    BASRPT_REQUIRE(it != options_.end(),
                   "unknown option: --" + name + " (see --help)");
    // A repeated option is almost always a sweep-script editing mistake;
    // silently letting the last occurrence win hides it.
    BASRPT_REQUIRE(seen.insert(name).second,
                   "option --" + name + " given more than once");
    Option& opt = it->second;

    if (opt.kind == Kind::kFlag) {
      BASRPT_REQUIRE(!value || !negated,
                     "--no-" + name + " does not take a value");
      opt.value = negated ? "false" : (value ? *value : "true");
      BASRPT_REQUIRE(opt.value == "true" || opt.value == "false",
                     "flag --" + name + " expects true/false");
    } else {
      BASRPT_REQUIRE(!negated, "--no- only applies to flags: --" + name);
      if (!value) {
        BASRPT_REQUIRE(i + 1 < argc, "option --" + name + " needs a value");
        value = argv[++i];
      }
      std::int64_t integer = 0;
      double real = 0.0;
      if (opt.kind == Kind::kInteger) {
        BASRPT_REQUIRE(fields::parse_i64(*value, &integer),
                       "option --" + name + " expects an integer, got '" +
                           *value + "'");
      } else if (opt.kind == Kind::kReal) {
        // Overflow ("1e999") and non-finite values ("inf", "nan") are
        // malformed too: an infinite --horizon would never end.
        BASRPT_REQUIRE(fields::parse_finite(*value, &real),
                       "option --" + name + " expects a number, got '" +
                           *value + "'");
      }
      opt.value = *value;
    }
  }
  return true;
}

const CliParser::Option& CliParser::find(const std::string& name,
                                         Kind kind) const {
  auto it = options_.find(name);
  BASRPT_ASSERT(it != options_.end(), "option not registered: " + name);
  BASRPT_ASSERT(it->second.kind == kind, "option type mismatch: " + name);
  return it->second;
}

bool CliParser::get_flag(const std::string& name) const {
  return find(name, Kind::kFlag).value == "true";
}

std::int64_t CliParser::get_integer(const std::string& name) const {
  std::int64_t value = 0;
  BASRPT_ASSERT(fields::parse_i64(find(name, Kind::kInteger).value, &value),
                "option --" + name + " holds a malformed integer");
  return value;
}

double CliParser::get_real(const std::string& name) const {
  double value = 0.0;
  BASRPT_ASSERT(fields::parse_finite(find(name, Kind::kReal).value, &value),
                "option --" + name + " holds a malformed number");
  return value;
}

const std::string& CliParser::get_text(const std::string& name) const {
  return find(name, Kind::kText).value;
}

std::string CliParser::canonical_values(
    const std::vector<std::string>& exclude) const {
  const std::set<std::string> skip(exclude.begin(), exclude.end());
  std::ostringstream out;
  for (const auto& [name, opt] : options_) {  // std::map → name order
    if (skip.count(name)) {
      continue;
    }
    out << name << '=' << opt.value << '\n';
  }
  return out.str();
}

std::string CliParser::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    out << "  --" << name;
    switch (opt.kind) {
      case Kind::kFlag:
        break;
      case Kind::kInteger:
        out << "=<int>";
        break;
      case Kind::kReal:
        out << "=<num>";
        break;
      case Kind::kText:
        out << "=<str>";
        break;
    }
    out << "  " << opt.help << " (default: " << opt.value << ")\n";
  }
  return out.str();
}

}  // namespace basrpt
