#include "fault/fault_plan.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/assert.hpp"
#include "common/fields.hpp"
#include "common/rng.hpp"

namespace basrpt::fault {

namespace {

constexpr const char* kHeader = "basrpt-faults-v1";
constexpr const char* kContext = "fault plan";

double parse_real(std::string_view cell, std::size_t line,
                  const char* what) {
  double value = 0.0;
  if (!fields::parse_finite(cell, &value)) {
    throw ParseError(kContext, line,
                     std::string(what) + " is not a number: '" +
                         std::string(cell) + "'");
  }
  return value;
}

std::int64_t parse_int(std::string_view cell, std::size_t line,
                       const char* what) {
  std::int64_t value = 0;
  if (!fields::parse_i64(cell, &value)) {
    throw ParseError(kContext, line,
                     std::string(what) + " is not an integer: '" +
                         std::string(cell) + "'");
  }
  return value;
}

void require_fields(std::size_t got, std::size_t expected, std::size_t line,
                    const char* kind) {
  if (got != expected) {
    throw ParseError(kContext, line,
                     std::string(kind) + " expects " +
                         std::to_string(expected - 1) + " arguments, got " +
                         std::to_string(got - 1));
  }
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDegrade:
      return "degrade";
    case FaultKind::kBlackout:
      return "blackout";
    case FaultKind::kDropDecisions:
      return "drop-decisions";
    case FaultKind::kRearrival:
      return "rearrive";
    case FaultKind::kLinkReset:
      return "link-reset";
    case FaultKind::kLinkCorrupt:
      return "link-corrupt";
    case FaultKind::kLinkStall:
      return "link-stall";
    case FaultKind::kLinkDup:
      return "link-dup";
  }
  return "?";
}

bool is_link_fault(FaultKind kind) {
  return kind == FaultKind::kLinkReset || kind == FaultKind::kLinkCorrupt ||
         kind == FaultKind::kLinkStall || kind == FaultKind::kLinkDup;
}

void FaultPlan::add(const FaultEvent& event) {
  BASRPT_REQUIRE(std::isfinite(event.start) && event.start >= 0.0,
                 "fault event start must be finite and non-negative");
  switch (event.kind) {
    case FaultKind::kDegrade:
      BASRPT_REQUIRE(event.port >= 0, "degrade needs a port");
      BASRPT_REQUIRE(event.factor > 0.0 && event.factor < 1.0,
                     "degrade factor must be in (0, 1); use blackout for 0");
      BASRPT_REQUIRE(std::isfinite(event.duration) && event.duration > 0.0,
                     "degrade duration must be positive");
      break;
    case FaultKind::kBlackout:
      BASRPT_REQUIRE(event.port >= 0, "blackout needs a port");
      BASRPT_REQUIRE(std::isfinite(event.duration) && event.duration > 0.0,
                     "blackout duration must be positive");
      break;
    case FaultKind::kDropDecisions:
      BASRPT_REQUIRE(std::isfinite(event.duration) && event.duration > 0.0,
                     "drop-decisions duration must be positive");
      break;
    case FaultKind::kRearrival:
      BASRPT_REQUIRE(event.count > 0, "rearrive needs a positive count");
      break;
    case FaultKind::kLinkReset:
      break;  // start (byte offset) checked above
    case FaultKind::kLinkCorrupt:
      BASRPT_REQUIRE(event.port == 0 || event.port == 1,
                     "link-corrupt direction must be 0 (c2s) or 1 (s2c)");
      BASRPT_REQUIRE(event.count > 0,
                     "link-corrupt needs a positive byte count");
      break;
    case FaultKind::kLinkStall:
      BASRPT_REQUIRE(event.port == 0 || event.port == 1,
                     "link-stall direction must be 0 (c2s) or 1 (s2c)");
      BASRPT_REQUIRE(std::isfinite(event.duration) && event.duration > 0.0,
                     "link-stall duration must be positive");
      break;
    case FaultKind::kLinkDup:
      BASRPT_REQUIRE(event.count > 0,
                     "link-dup needs a positive repeat count");
      break;
  }
  // Insertion sort keeps events() ordered while preserving the relative
  // order of equal-time events (plans are small; simplicity wins).
  auto it = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.start < b.start; });
  events_.insert(it, event);
}

std::int32_t FaultPlan::max_port() const {
  std::int32_t max = -1;
  for (const FaultEvent& e : events_) {
    if (is_link_fault(e.kind)) {
      continue;  // port is a direction, not a fabric port
    }
    max = std::max(max, e.port);
  }
  return max;
}

double FaultPlan::span() const {
  double end = 0.0;
  for (const FaultEvent& e : events_) {
    if (is_link_fault(e.kind)) {
      continue;  // start is a byte offset, not a time
    }
    end = std::max(end, e.start + (e.kind == FaultKind::kRearrival
                                       ? 0.0
                                       : e.duration));
  }
  return end;
}

FaultPlan FaultPlan::parse(std::istream& in) {
  std::string raw;
  if (!std::getline(in, raw)) {
    throw ParseError(kContext, 1, std::string("expected '") + kHeader + "'");
  }
  if (fields::strip_cr(raw) != kHeader) {
    throw ParseError(kContext, 1, std::string("expected '") + kHeader + "'");
  }
  FaultPlan plan;
  std::size_t line_no = 1;
  bool saw_newline_at_end = !in.eof();
  while (std::getline(in, raw)) {
    ++line_no;
    // A file whose final line lacks the trailing newline was truncated
    // mid-write (the writer always terminates lines); reject it rather
    // than silently acting on a partial event.
    saw_newline_at_end = !in.eof();
    const std::string_view line = fields::strip_cr(raw);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::array<std::string_view, 5> cells;  // the longest event's count
    const std::size_t n = fields::split(line, ',', cells);
    const std::string_view kind = cells[0];
    FaultEvent event;
    if (kind == "degrade") {
      require_fields(n, 5, line_no, "degrade");
      event.kind = FaultKind::kDegrade;
      event.start = parse_real(cells[1], line_no, "start");
      event.duration = parse_real(cells[2], line_no, "duration");
      event.port =
          static_cast<std::int32_t>(parse_int(cells[3], line_no, "port"));
      event.factor = parse_real(cells[4], line_no, "factor");
    } else if (kind == "blackout") {
      require_fields(n, 4, line_no, "blackout");
      event.kind = FaultKind::kBlackout;
      event.start = parse_real(cells[1], line_no, "start");
      event.duration = parse_real(cells[2], line_no, "duration");
      event.port =
          static_cast<std::int32_t>(parse_int(cells[3], line_no, "port"));
    } else if (kind == "drop-decisions") {
      require_fields(n, 3, line_no, "drop-decisions");
      event.kind = FaultKind::kDropDecisions;
      event.start = parse_real(cells[1], line_no, "start");
      event.duration = parse_real(cells[2], line_no, "duration");
    } else if (kind == "rearrive") {
      require_fields(n, 3, line_no, "rearrive");
      event.kind = FaultKind::kRearrival;
      event.start = parse_real(cells[1], line_no, "start");
      event.count = parse_int(cells[2], line_no, "count");
    } else if (kind == "link-reset") {
      require_fields(n, 2, line_no, "link-reset");
      event.kind = FaultKind::kLinkReset;
      event.start = parse_real(cells[1], line_no, "offset");
    } else if (kind == "link-corrupt") {
      require_fields(n, 4, line_no, "link-corrupt");
      event.kind = FaultKind::kLinkCorrupt;
      event.port = static_cast<std::int32_t>(
          parse_int(cells[1], line_no, "direction"));
      event.start = parse_real(cells[2], line_no, "offset");
      event.count = parse_int(cells[3], line_no, "count");
    } else if (kind == "link-stall") {
      require_fields(n, 4, line_no, "link-stall");
      event.kind = FaultKind::kLinkStall;
      event.port = static_cast<std::int32_t>(
          parse_int(cells[1], line_no, "direction"));
      event.start = parse_real(cells[2], line_no, "offset");
      event.duration = parse_real(cells[3], line_no, "seconds");
    } else if (kind == "link-dup") {
      require_fields(n, 3, line_no, "link-dup");
      event.kind = FaultKind::kLinkDup;
      event.start = parse_real(cells[1], line_no, "offset");
      event.count = parse_int(cells[2], line_no, "count");
    } else {
      throw ParseError(kContext, line_no,
                       "unknown fault kind '" + std::string(kind) + "'");
    }
    try {
      plan.add(event);
    } catch (const ConfigError& e) {
      throw ParseError(kContext, line_no, e.what());
    }
  }
  if (in.bad()) {
    throw ConfigError("fault plan: I/O error while reading");
  }
  if (!saw_newline_at_end) {
    throw ParseError(kContext, line_no,
                     "file truncated (no trailing newline)");
  }
  return plan;
}

FaultPlan FaultPlan::from_file(const std::string& path) {
  std::ifstream in(path);
  BASRPT_REQUIRE(in.good(), "cannot open fault plan: " + path);
  return parse(in);
}

void FaultPlan::write(std::ostream& out) const {
  out << kHeader << "\n# kind,start,duration,port,factor / count\n";
  char buf[160];
  for (const FaultEvent& e : events_) {
    switch (e.kind) {
      case FaultKind::kDegrade:
        std::snprintf(buf, sizeof(buf), "degrade,%.17g,%.17g,%d,%.17g\n",
                      e.start, e.duration, e.port, e.factor);
        break;
      case FaultKind::kBlackout:
        std::snprintf(buf, sizeof(buf), "blackout,%.17g,%.17g,%d\n", e.start,
                      e.duration, e.port);
        break;
      case FaultKind::kDropDecisions:
        std::snprintf(buf, sizeof(buf), "drop-decisions,%.17g,%.17g\n",
                      e.start, e.duration);
        break;
      case FaultKind::kRearrival:
        std::snprintf(buf, sizeof(buf), "rearrive,%.17g,%" PRId64 "\n",
                      e.start, e.count);
        break;
      case FaultKind::kLinkReset:
        std::snprintf(buf, sizeof(buf), "link-reset,%.17g\n", e.start);
        break;
      case FaultKind::kLinkCorrupt:
        std::snprintf(buf, sizeof(buf), "link-corrupt,%d,%.17g,%" PRId64
                      "\n", e.port, e.start, e.count);
        break;
      case FaultKind::kLinkStall:
        std::snprintf(buf, sizeof(buf), "link-stall,%d,%.17g,%.17g\n",
                      e.port, e.start, e.duration);
        break;
      case FaultKind::kLinkDup:
        std::snprintf(buf, sizeof(buf), "link-dup,%.17g,%" PRId64 "\n",
                      e.start, e.count);
        break;
    }
    out << buf;
  }
}

void FaultPlan::write_file(const std::string& path) const {
  std::ofstream out(path);
  BASRPT_REQUIRE(out.good(), "cannot open fault plan for writing: " + path);
  write(out);
  BASRPT_REQUIRE(out.good(), "error while writing fault plan: " + path);
}

FaultPlan FaultPlan::randomized(const RandomFaultSpec& spec,
                                std::uint64_t seed) {
  BASRPT_REQUIRE(spec.ports >= 1, "random fault spec needs ports");
  BASRPT_REQUIRE(spec.horizon > 0.0, "random fault spec needs a horizon");
  Rng rng(seed ^ 0xFA017ull);
  FaultPlan plan;
  // Events land in the middle of the run so both the healthy warm-up and
  // the post-recovery drain are observable.
  const double lo = 0.05 * spec.horizon;
  const double hi = 0.85 * spec.horizon;
  const double mean_dur =
      std::max(1e-9, spec.mean_duration_frac * spec.horizon);
  auto count_of = [&rng](double expected) {
    // Deterministic Poisson-ish count: floor + Bernoulli on the
    // fractional part keeps the expectation without a full sampler.
    const double floor_part = std::floor(expected);
    std::int64_t n = static_cast<std::int64_t>(floor_part);
    if (rng.bernoulli(expected - floor_part)) {
      ++n;
    }
    return n;
  };
  auto duration = [&]() {
    const double d = rng.exponential(1.0 / mean_dur);
    return std::min(std::max(d, 0.01 * mean_dur), spec.horizon);
  };

  const std::int64_t degrades = count_of(spec.degrades);
  for (std::int64_t k = 0; k < degrades; ++k) {
    FaultEvent e;
    e.kind = FaultKind::kDegrade;
    e.start = rng.uniform(lo, hi);
    e.duration = duration();
    e.port = static_cast<std::int32_t>(rng.uniform_int(0, spec.ports - 1));
    e.factor = rng.uniform(spec.min_factor, 0.9);
    plan.add(e);
  }
  const std::int64_t blackouts = count_of(spec.blackouts);
  for (std::int64_t k = 0; k < blackouts; ++k) {
    FaultEvent e;
    e.kind = FaultKind::kBlackout;
    e.start = rng.uniform(lo, hi);
    e.duration = 0.5 * duration();
    e.port = static_cast<std::int32_t>(rng.uniform_int(0, spec.ports - 1));
    plan.add(e);
  }
  const std::int64_t drops = count_of(spec.decision_drops);
  for (std::int64_t k = 0; k < drops; ++k) {
    FaultEvent e;
    e.kind = FaultKind::kDropDecisions;
    e.start = rng.uniform(lo, hi);
    e.duration = 0.5 * duration();
    plan.add(e);
  }
  const std::int64_t bursts = count_of(spec.rearrivals);
  for (std::int64_t k = 0; k < bursts; ++k) {
    FaultEvent e;
    e.kind = FaultKind::kRearrival;
    e.start = rng.uniform(lo, hi);
    e.count = spec.rearrival_count;
    plan.add(e);
  }
  return plan;
}

bool operator==(const FaultEvent& a, const FaultEvent& b) {
  return a.kind == b.kind && a.start == b.start && a.duration == b.duration &&
         a.port == b.port && a.factor == b.factor && a.count == b.count;
}

bool operator==(const FaultPlan& a, const FaultPlan& b) {
  return a.events() == b.events();
}

}  // namespace basrpt::fault
