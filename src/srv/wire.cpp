#include "srv/wire.hpp"

#include <array>
#include <cinttypes>
#include <cstdio>

#include "common/assert.hpp"
#include "common/fields.hpp"

namespace basrpt::srv {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw ParseError(kDecisionsParseContext, line_no, what);
}

std::uint64_t parse_u64(std::string_view cell, std::size_t line_no,
                        const char* what) {
  if (cell.empty()) {
    fail(line_no, std::string(what) + " is empty");
  }
  std::uint64_t value = 0;
  if (!fields::parse_u64(cell, &value)) {
    fail(line_no, std::string(what) + " is not a non-negative integer: '" +
                      std::string(cell) + "'");
  }
  return value;
}

double parse_real(std::string_view cell, std::size_t line_no,
                  const char* what) {
  double value = 0.0;
  if (!fields::parse_finite(cell, &value)) {
    fail(line_no, std::string(what) + " is not a number: '" +
                      std::string(cell) + "'");
  }
  return value;
}

}  // namespace

std::string encode_hello(std::uint64_t cursor) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "hello,%" PRIu64 "\n", cursor);
  return std::string(buf);
}

std::string encode_decision(const Decision& d) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "decision,%" PRIu64 ",%.17g,%c,%d\n",
                d.seq, d.time_s, d.admitted ? 'a' : 's', d.tenant);
  return std::string(buf);
}

std::string encode_complete(std::uint64_t seq, const std::string& status) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "complete,%" PRIu64 ",%s\n", seq,
                status.c_str());
  return std::string(buf);
}

std::string encode_error(std::uint64_t line, std::uint64_t byte_offset,
                         const std::string& reason) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "error,%" PRIu64 ",%" PRIu64 ",", line,
                byte_offset);
  return std::string(buf) + reason + "\n";
}

DecisionMsg parse_decision_line(std::string_view raw, std::size_t line_no) {
  const std::string_view line = fields::strip_cr(raw);
  const std::string_view verb = line.substr(0, line.find(','));
  // Each frame splits into exactly its cell count; the last cell keeps
  // any further commas (error reasons and statuses are free text).
  std::array<std::string_view, 5> cells;
  DecisionMsg msg;
  if (verb == "hello") {
    if (fields::split(line, ',', cells.data(), 2) < 2) {
      fail(line_no, "expected hello,<cursor>");
    }
    msg.kind = DecisionMsg::Kind::kHello;
    msg.cursor = parse_u64(cells[1], line_no, "cursor");
    return msg;
  }
  if (verb == "decision") {
    if (fields::split(line, ',', cells) < 5) {
      fail(line_no, "expected decision,<seq>,<time>,<a|s>,<tenant>");
    }
    msg.kind = DecisionMsg::Kind::kDecision;
    msg.decision.seq = parse_u64(cells[1], line_no, "seq");
    msg.decision.time_s = parse_real(cells[2], line_no, "time");
    if (cells[3] == "a") {
      msg.decision.admitted = true;
    } else if (cells[3] == "s") {
      msg.decision.admitted = false;
    } else {
      fail(line_no, "decision verdict must be 'a' or 's', got '" +
                        std::string(cells[3]) + "'");
    }
    const std::uint64_t tenant = parse_u64(cells[4], line_no, "tenant");
    if (tenant > INT32_MAX) {
      fail(line_no, "tenant out of range: '" + std::string(cells[4]) + "'");
    }
    msg.decision.tenant = static_cast<std::int32_t>(tenant);
    return msg;
  }
  if (verb == "complete") {
    if (fields::split(line, ',', cells.data(), 3) < 3 || cells[2].empty()) {
      fail(line_no, "expected complete,<seq>,<status>");
    }
    msg.kind = DecisionMsg::Kind::kComplete;
    msg.seq = parse_u64(cells[1], line_no, "seq");
    msg.status = std::string(cells[2]);
    return msg;
  }
  if (verb == "error") {
    if (fields::split(line, ',', cells.data(), 4) < 4) {
      fail(line_no, "expected error,<line>,<offset>,<reason>");
    }
    msg.kind = DecisionMsg::Kind::kError;
    msg.line = parse_u64(cells[1], line_no, "line");
    msg.offset = parse_u64(cells[2], line_no, "offset");
    msg.reason = std::string(cells[3]);
    return msg;
  }
  fail(line_no, "unknown frame '" + std::string(verb.substr(0, 32)) + "'");
}

}  // namespace basrpt::srv
