#include "common/fields.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

// The enumerators only; basrpt_common does not link basrpt_stats.
#include "stats/fct.hpp"

namespace basrpt::fields {

namespace {

template <typename T>
bool parse_whole(std::string_view cell, T* out) {
  const char* end = cell.data() + cell.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  return line;
}

std::size_t split(std::string_view line, char sep, std::string_view* cells,
                  std::size_t max_cells) {
  std::size_t fields = 0;
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = line.find(sep, start);
    if (fields + 1 == max_cells) {
      cells[fields] = line.substr(start);  // the rest, separators and all
    } else if (fields < max_cells) {
      cells[fields] = line.substr(start, at - start);
    }
    ++fields;
    if (at == std::string_view::npos) {
      return fields;
    }
    start = at + 1;
  }
}

bool parse_finite(std::string_view cell, double* out) {
  double value = 0.0;
  if (!parse_whole(cell, &value) || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool parse_i64(std::string_view cell, std::int64_t* out) {
  return parse_whole(cell, out);
}

bool parse_u64(std::string_view cell, std::uint64_t* out) {
  // from_chars takes no sign for unsigned types; an empty cell fails.
  return parse_whole(cell, out);
}

char class_tag(stats::FlowClass cls) {
  return cls == stats::FlowClass::kQuery ? 'q' : 'b';
}

bool parse_class(std::string_view tag, stats::FlowClass* out) {
  if (tag == "q") {
    *out = stats::FlowClass::kQuery;
    return true;
  }
  if (tag == "b") {
    *out = stats::FlowClass::kBackground;
    return true;
  }
  return false;
}

}  // namespace basrpt::fields
