#include "ckpt/snapshot.hpp"

#include <array>
#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "common/fields.hpp"
#include "common/serial.hpp"

namespace basrpt::ckpt {

namespace {

bool valid_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-' || c == '.';
    if (!ok) {
      return false;
    }
  }
  return true;
}

std::uint32_t crc_of_lines(const std::vector<std::string>& lines) {
  std::uint32_t crc = 0;
  for (const std::string& line : lines) {
    crc = crc32(crc, line.data(), line.size());
    crc = crc32(crc, "\n", 1);
  }
  return crc;
}

std::string crc_hex(std::uint32_t crc) {
  // Low 8 digits of the 16-digit helper: CRC-32 is 32 bits wide.
  return u64_to_hex(crc).substr(8);
}

std::uint64_t parse_count(std::string_view cell, std::size_t line,
                          const char* what) {
  std::uint64_t value = 0;
  if (!fields::parse_u64(cell, &value)) {
    throw ParseError(kParseContext, line,
                     std::string(what) + " is not a count: '" +
                         std::string(cell) + "'");
  }
  return value;
}

std::uint32_t parse_crc(std::string_view cell, std::size_t line) {
  if (cell.size() != 8) {
    throw ParseError(kParseContext, line,
                     "CRC must be 8 hex digits: '" + std::string(cell) + "'");
  }
  try {
    return static_cast<std::uint32_t>(
        u64_from_hex(std::string("00000000").append(cell)));
  } catch (const std::exception&) {
    throw ParseError(kParseContext, line,
                     "CRC must be 8 hex digits: '" + std::string(cell) + "'");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer

void SnapshotWriter::Section::line(const std::string& raw) {
  BASRPT_ASSERT(raw.find('\n') == std::string::npos &&
                    raw.find('\r') == std::string::npos,
                "checkpoint payload line contains a line break");
  lines_.push_back(raw);
}

void SnapshotWriter::Section::u64(const char* key, std::uint64_t value) {
  line(std::string(key) + ' ' + std::to_string(value));
}

void SnapshotWriter::Section::i64(const char* key, std::int64_t value) {
  line(std::string(key) + ' ' + std::to_string(value));
}

void SnapshotWriter::Section::f64(const char* key, double value) {
  line(std::string(key) + ' ' + f64_to_hex(value));
}

void SnapshotWriter::Section::text(const char* key, const std::string& value) {
  line(std::string(key) + ' ' + value);
}

SnapshotWriter::Section& SnapshotWriter::section(const std::string& name) {
  BASRPT_ASSERT(valid_name(name),
                "checkpoint section name must be [a-z0-9_.-]+: '" + name + "'");
  for (const Section& s : sections_) {
    BASRPT_ASSERT(s.name_ != name,
                  "checkpoint section written twice: '" + name + "'");
  }
  sections_.emplace_back();
  sections_.back().name_ = name;
  return sections_.back();
}

std::string SnapshotWriter::str() const {
  std::ostringstream out;
  out << kMagic << '\n';
  for (const Section& s : sections_) {
    out << "section " << s.name_ << ' ' << s.lines_.size() << ' '
        << crc_hex(crc_of_lines(s.lines_)) << '\n';
    for (const std::string& line : s.lines_) {
      out << line << '\n';
    }
  }
  out << "end " << sections_.size() << '\n';
  return out.str();
}

// ---------------------------------------------------------------------------
// Reader

const std::string& SectionReader::next(const char* what) {
  if (cursor_ >= section_->lines.size()) {
    throw ParseError(kParseContext,
                     section_->first_line + section_->lines.size(),
                     "section '" + section_->name + "' is missing " + what);
  }
  return section_->lines[cursor_++];
}

std::size_t SectionReader::current_file_line() const {
  // Line of the row the cursor just consumed (or would consume next when
  // nothing was consumed yet).
  const std::size_t row = cursor_ == 0 ? 0 : cursor_ - 1;
  return section_->first_line + row;
}

void SectionReader::fail(const std::string& what) const {
  throw ParseError(kParseContext, current_file_line(),
                   "section '" + section_->name + "': " + what);
}

std::string_view SectionReader::value_of(const char* key) {
  const std::string_view line = next(key);
  const std::size_t space = line.find(' ');
  if (space == std::string_view::npos) {
    fail("expected 'key value', got '" + std::string(line) + "'");
  }
  const std::string_view got = line.substr(0, space);
  if (got != key) {
    fail("expected key '" + std::string(key) + "', got '" + std::string(got) +
         "'");
  }
  return line.substr(space + 1);
}

std::uint64_t SectionReader::u64(const char* key) {
  const std::string_view cell = value_of(key);
  std::uint64_t value = 0;
  if (!fields::parse_u64(cell, &value)) {
    fail(std::string(key) + " is not a u64: '" + std::string(cell) + "'");
  }
  return value;
}

std::int64_t SectionReader::i64(const char* key) {
  const std::string_view cell = value_of(key);
  std::int64_t value = 0;
  if (!fields::parse_i64(cell, &value)) {
    fail(std::string(key) + " is not an integer: '" + std::string(cell) +
         "'");
  }
  return value;
}

double SectionReader::f64(const char* key) {
  const std::string_view cell = value_of(key);
  try {
    return f64_from_hex(cell);
  } catch (const std::exception&) {
    fail(std::string(key) + " is not a hex-encoded double: '" +
         std::string(cell) + "'");
  }
}

std::size_t SectionReader::count(const char* key, std::size_t per_item) {
  const std::uint64_t n = u64(key);
  const std::uint64_t cap = remaining() / (per_item == 0 ? 1 : per_item);
  if (n > cap) {
    fail(std::string(key) + " count " + std::to_string(n) +
         " exceeds the section's remaining payload");
  }
  return static_cast<std::size_t>(n);
}

std::string SectionReader::text(const char* key) {
  return std::string(value_of(key));
}

void SectionReader::expect_done() {
  if (cursor_ != section_->lines.size()) {
    throw ParseError(kParseContext, section_->first_line + cursor_,
                     "section '" + section_->name + "' has " +
                         std::to_string(remaining()) +
                         " unexpected trailing line(s)");
  }
}

// ---------------------------------------------------------------------------
// Snapshot parse

Snapshot Snapshot::parse(std::istream& in) {
  std::string raw;
  if (!std::getline(in, raw)) {
    throw ParseError(kParseContext, 1,
                     std::string("expected '") + kMagic + "'");
  }
  if (fields::strip_cr(raw) != kMagic) {
    throw ParseError(kParseContext, 1,
                     std::string("expected '") + kMagic + "'");
  }

  Snapshot snap;
  std::size_t line_no = 1;
  bool saw_newline_at_end = !in.eof();
  bool saw_trailer = false;
  while (std::getline(in, raw)) {
    ++line_no;
    saw_newline_at_end = !in.eof();
    const std::string_view line = fields::strip_cr(raw);
    if (saw_trailer) {
      // Anything after `end <n>` is a concatenation accident or an
      // attacker-controlled tail; either way the file is not trustworthy.
      throw ParseError(kParseContext, line_no,
                       "trailing content after 'end' trailer");
    }
    if (line.empty()) {
      throw ParseError(kParseContext, line_no, "blank line inside snapshot");
    }
    std::array<std::string_view, 4> cells;
    const std::size_t n = fields::split(line, ' ', cells);
    if (cells[0] == "end") {
      if (n != 2) {
        throw ParseError(kParseContext, line_no,
                         "'end' expects the section count");
      }
      const std::uint64_t count =
          parse_count(cells[1], line_no, "section count");
      if (count != snap.sections_.size()) {
        throw ParseError(kParseContext, line_no,
                         "trailer says " + std::to_string(count) +
                             " sections, file has " +
                             std::to_string(snap.sections_.size()));
      }
      saw_trailer = true;
      continue;
    }
    if (cells[0] != "section") {
      throw ParseError(kParseContext, line_no,
                       "expected 'section' or 'end', got '" +
                           std::string(cells[0]) + "'");
    }
    if (n != 4) {
      throw ParseError(kParseContext, line_no,
                       "'section' expects <name> <nlines> <crc32>");
    }
    Section section;
    section.name = std::string(cells[1]);
    if (!valid_name(section.name)) {
      throw ParseError(kParseContext, line_no,
                       "bad section name '" + section.name + "'");
    }
    if (snap.index_.count(section.name)) {
      throw ParseError(kParseContext, line_no,
                       "duplicate section '" + section.name + "'");
    }
    const std::uint64_t nlines = parse_count(cells[2], line_no, "nlines");
    // An absurd count is a corrupt header; refuse before attempting to
    // allocate or loop on it.
    if (nlines > (1ull << 32)) {
      throw ParseError(kParseContext, line_no,
                       "implausible section size " + std::to_string(nlines));
    }
    const std::uint32_t want_crc = parse_crc(cells[3], line_no);
    section.first_line = line_no + 1;
    section.lines.reserve(static_cast<std::size_t>(nlines));
    for (std::uint64_t i = 0; i < nlines; ++i) {
      if (!std::getline(in, raw)) {
        throw ParseError(kParseContext, line_no,
                         "section '" + section.name + "' truncated: expected " +
                             std::to_string(nlines) + " lines, got " +
                             std::to_string(i));
      }
      ++line_no;
      saw_newline_at_end = !in.eof();
      section.lines.emplace_back(fields::strip_cr(raw));
    }
    const std::uint32_t got_crc = crc_of_lines(section.lines);
    if (got_crc != want_crc) {
      throw ParseError(kParseContext, section.first_line,
                       "section '" + section.name + "' CRC mismatch: header " +
                           crc_hex(want_crc) + ", payload " +
                           crc_hex(got_crc));
    }
    snap.index_[section.name] = snap.sections_.size();
    snap.sections_.push_back(std::move(section));
  }
  if (in.bad()) {
    throw ConfigError("checkpoint: I/O error while reading");
  }
  if (!saw_trailer) {
    throw ParseError(kParseContext, line_no,
                     "file truncated (missing 'end' trailer)");
  }
  if (!saw_newline_at_end) {
    throw ParseError(kParseContext, line_no,
                     "file truncated (no trailing newline)");
  }
  return snap;
}

Snapshot Snapshot::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  BASRPT_REQUIRE(in.good(), "cannot open checkpoint: " + path);
  return parse(in);
}

bool Snapshot::has(const std::string& name) const {
  return index_.count(name) != 0;
}

const Section& Snapshot::section(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw ParseError(kParseContext, 1,
                     "snapshot has no section '" + name + "'");
  }
  return sections_[it->second];
}

}  // namespace basrpt::ckpt
