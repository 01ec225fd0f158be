// basrpt-ckpt-v1: the versioned, CRC-guarded checkpoint container.
//
// Layout (line-oriented text, one logical record per line):
//
//   basrpt-ckpt-v1
//   section <name> <nlines> <crc32-8hex>
//   <nlines payload lines>
//   ... more sections ...
//   end <nsections>
//
// Each section's CRC-32 covers its payload lines (each with a trailing
// '\n', after CRLF normalization), so a torn write, bit flip, or
// truncation inside any section is detected before a single field is
// acted on. The reader follows the `src/fault` conventions: 1-based
// line-numbered ParseError for every malformed construct, truncation
// detection via the missing trailing newline, CRLF tolerance, and it
// must never crash or silently resume on arbitrary bytes.
//
// Payload lines are `key value` pairs read back in writer order by a
// sequential SectionReader — a checkpoint is a machine-to-machine
// artifact, so field order is part of the schema and any drift is a
// loud ParseError rather than a default-filled struct. Integers travel
// in decimal; doubles travel as the hex image of their IEEE-754 bits
// (see common/serial.hpp) because resume must be bit-deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace basrpt::ckpt {

/// Format magic, shared by writer, reader, and tests.
inline constexpr const char* kMagic = "basrpt-ckpt-v1";

/// Context string used in every ParseError thrown by the reader.
inline constexpr const char* kParseContext = "checkpoint";

/// Accumulates one snapshot and serializes it to basrpt-ckpt-v1 text.
class SnapshotWriter {
 public:
  /// Typed append helpers for one section's payload.
  class Section {
   public:
    /// Raw payload line; must not contain '\n' or '\r'.
    void line(const std::string& raw);

    void u64(const char* key, std::uint64_t value);
    void i64(const char* key, std::int64_t value);
    /// Doubles are written as their 16-digit IEEE-754 hex image.
    void f64(const char* key, double value);
    /// Free-form value (everything after "key " up to end of line).
    void text(const char* key, const std::string& value);

   private:
    friend class SnapshotWriter;
    std::string name_;
    std::vector<std::string> lines_;
  };

  /// Opens a new section. Names must be unique within a snapshot and
  /// contain no whitespace. The returned reference stays valid across
  /// later section() calls (deque storage — no reallocation moves).
  Section& section(const std::string& name);

  /// Serializes the whole snapshot, trailer included.
  std::string str() const;

 private:
  std::deque<Section> sections_;
};

/// One parsed, CRC-verified section.
struct Section {
  std::string name;
  std::size_t first_line = 0;  // 1-based file line of the first payload row
  std::vector<std::string> lines;
};

/// Sequential typed reader over one section's payload. Keys are part of
/// the schema: a mismatch between the expected and stored key means the
/// file was produced by an incompatible writer and raises ParseError.
class SectionReader {
 public:
  explicit SectionReader(const Section& section) : section_(&section) {}

  std::size_t remaining() const { return section_->lines.size() - cursor_; }

  /// Next raw payload line; ParseError (with file line number) when the
  /// section is exhausted.
  const std::string& next(const char* what);

  std::uint64_t u64(const char* key);
  std::int64_t i64(const char* key);
  double f64(const char* key);
  std::string text(const char* key);

  /// A `key <count>` line for `count` items of `per_item` lines each,
  /// checked against what the section could still hold: a count beyond
  /// that is a corrupt file, not a big vector, so it fails here before
  /// anyone reserves room for it.
  std::size_t count(const char* key, std::size_t per_item);

  /// Asserts the section was fully consumed; trailing unread lines mean
  /// schema drift and raise ParseError.
  void expect_done();

  /// Raises ParseError at the current position — for codec-level value
  /// validation (bad enum, implausible count) on top of the typed reads.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  /// Splits `key value`, validating the key. Returns the value part,
  /// a view into the section's line.
  std::string_view value_of(const char* key);
  std::size_t current_file_line() const;

  const Section* section_;
  std::size_t cursor_ = 0;
};

/// A parsed basrpt-ckpt-v1 snapshot.
class Snapshot {
 public:
  /// Parses and CRC-verifies a full snapshot. Throws ParseError (line
  /// numbered) on any malformed, truncated, or corrupt input.
  static Snapshot parse(std::istream& in);
  static Snapshot from_file(const std::string& path);

  bool has(const std::string& name) const;

  /// The named section; ParseError if the snapshot does not contain it.
  const Section& section(const std::string& name) const;

  /// Reader positioned at the start of the named section.
  SectionReader reader(const std::string& name) const {
    return SectionReader(section(name));
  }

  const std::vector<Section>& sections() const { return sections_; }

 private:
  std::vector<Section> sections_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace basrpt::ckpt
