// The one field layer under every line-oriented text format: the
// basrpt-feed-v1 arrival stream, the basrpt-decisions-v1 frames, the
// basrpt-faults-v1 plans, the rows of basrpt-ckpt-v1 checkpoints, the
// command line and the scheduler specs.
//
// Nothing here allocates or throws. Cells are views into the caller's
// line, and each parser only says whether the whole cell is a number of
// its kind; the caller owns the error text, the context and the line
// number, so a format's messages stay its own.
//
// The number grammar is std::from_chars': an optional '-' and decimal
// digits, with a fraction and exponent for reals. There is no leading
// blank, no '+' and no hexadecimal, a real must be finite, and a value
// out of its type's range fails rather than saturating or wrapping.
// Every number the writers emit (%.17g reals, decimal integers) parses
// back to the same bits.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace basrpt::stats {
enum class FlowClass : std::uint8_t;  // stats/fct.hpp
}  // namespace basrpt::stats

namespace basrpt::fields {

/// `line` without one trailing '\r', so CRLF files read like LF ones.
std::string_view strip_cr(std::string_view line);

/// Splits `line` at every `sep` and returns how many fields it has
/// (separators + 1; an empty line is one empty field). The first
/// min(fields, max_cells) of them land in `cells`. When the line has
/// more fields than that, the last stored cell runs to the end of the
/// line, separators included: a free-text last field (an error reason,
/// a health-transition reason) keeps its commas and blanks.
std::size_t split(std::string_view line, char sep, std::string_view* cells,
                  std::size_t max_cells);

template <std::size_t N>
std::size_t split(std::string_view line, char sep,
                  std::array<std::string_view, N>& cells) {
  return split(line, sep, cells.data(), N);
}

/// A finite decimal real, the whole cell ("1.5", "-2e-3", ".5").
bool parse_finite(std::string_view cell, double* out);

/// A signed decimal integer in int64 range, the whole cell.
bool parse_i64(std::string_view cell, std::int64_t* out);

/// Decimal digits only, in uint64 range, the whole cell.
bool parse_u64(std::string_view cell, std::uint64_t* out);

/// The one-letter class tag of the arrival formats: 'q' for a query,
/// 'b' for background.
char class_tag(stats::FlowClass cls);
bool parse_class(std::string_view tag, stats::FlowClass* out);

}  // namespace basrpt::fields
