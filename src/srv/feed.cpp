#include "srv/feed.hpp"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/assert.hpp"
#include "common/fields.hpp"

namespace basrpt::srv {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw ParseError(kFeedParseContext, line_no, what);
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

std::int64_t parse_int(std::string_view cell, std::size_t line_no,
                       const char* what) {
  std::int64_t value = 0;
  if (!fields::parse_i64(cell, &value)) {
    fail(line_no, std::string(what) + " is not an integer: '" +
                      std::string(cell) + "'");
  }
  return value;
}

}  // namespace

FeedLineKind parse_feed_line(std::string_view raw, std::size_t line_no,
                             double last_time, FeedRecord* out) {
  const std::string_view line = fields::strip_cr(raw);
  if (line.empty() || line[0] == '#') {
    return FeedLineKind::kBlank;
  }
  if (line == "end") {
    return FeedLineKind::kEnd;
  }
  std::array<std::string_view, 7> cells;
  const std::size_t n = fields::split(line, ',', cells);
  if (cells[0] != "flow") {
    fail(line_no, "expected a 'flow,...' record or 'end', got '" +
                      std::string(line.substr(0, 32)) + "'");
  }
  if (n != 6 && n != 7) {
    fail(line_no, "expected flow,time,src,dst,size,class[,tenant]; got " +
                      std::to_string(n) + " fields");
  }
  FeedRecord rec;
  rec.arrival.time = SimTime{parse_real(cells[1], line_no, "time")};
  rec.arrival.src =
      static_cast<workload::PortId>(parse_int(cells[2], line_no, "src"));
  rec.arrival.dst =
      static_cast<workload::PortId>(parse_int(cells[3], line_no, "dst"));
  rec.arrival.size = Bytes{parse_int(cells[4], line_no, "size")};
  if (!fields::parse_class(cells[5], &rec.arrival.cls)) {
    fail(line_no, "unknown flow class '" + std::string(cells[5]) + "'");
  }
  if (n == 7) {
    const std::int64_t tenant = parse_int(cells[6], line_no, "tenant");
    if (tenant < 0 || tenant > INT32_MAX) {
      fail(line_no, "tenant out of range: '" + std::string(cells[6]) + "'");
    }
    rec.tenant = static_cast<std::int32_t>(tenant);
  }
  if (rec.arrival.time.seconds < 0.0) {
    fail(line_no, "time must be non-negative");
  }
  if (rec.arrival.time.seconds < last_time) {
    fail(line_no, "times must be non-decreasing");
  }
  if (rec.arrival.src < 0 || rec.arrival.dst < 0) {
    fail(line_no, "ports must be non-negative");
  }
  if (rec.arrival.src == rec.arrival.dst) {
    fail(line_no, "src and dst must differ");
  }
  if (rec.arrival.size.count <= 0) {
    fail(line_no, "size must be positive");
  }
  *out = rec;
  return FeedLineKind::kRecord;
}

std::string encode_feed_record(const FeedRecord& record) {
  char buf[160];
  // %.17g round-trips an IEEE double exactly, so a replayed feed
  // reproduces the generating run bit-for-bit.
  std::snprintf(buf, sizeof(buf), "flow,%.17g,%d,%d,%" PRId64 ",%c,%d\n",
                record.arrival.time.seconds, record.arrival.src,
                record.arrival.dst, record.arrival.size.count,
                fields::class_tag(record.arrival.cls), record.tenant);
  return std::string(buf);
}

FeedReader::FeedReader(std::istream& in)
    : owned_(std::make_unique<IstreamLineSource>(in)), lines_(owned_.get()) {
  read_header();
}

FeedReader::FeedReader(LineSource& lines) : lines_(&lines) { read_header(); }

void FeedReader::read_header() {
  std::string line;
  const LineStatus st = lines_->next_line(line);
  if (st == LineStatus::kEof) {
    throw ParseError(kFeedParseContext, 1,
                     std::string("expected '") + kFeedMagic + "'");
  }
  // A torn header (no trailing newline) is accepted when the content
  // matches: historic behaviour for one-line hand-written feeds.
  if (fields::strip_cr(line) != kFeedMagic) {
    throw ParseError(kFeedParseContext, 1,
                     std::string("expected '") + kFeedMagic + "'");
  }
}

std::optional<FeedRecord> FeedReader::next() {
  if (done_) {
    return std::nullopt;
  }
  for (;;) {
    const LineStatus st = lines_->next_line(line_);
    if (st == LineStatus::kEof) {
      // Bare EOF: the producer went away without the `end` sentinel.
      // The server drains; a strict batch loader may reject via
      // clean_end().
      done_ = true;
      return std::nullopt;
    }
    ++line_no_;
    if (st == LineStatus::kTorn) {
      // The writer terminates every line; a final line without a
      // newline is a torn write (or a half-flushed pipe) — reject it
      // rather than acting on a partial record.
      throw ParseError(kFeedParseContext, line_no_,
                       "feed truncated (no trailing newline)");
    }
    FeedRecord rec;
    switch (parse_feed_line(line_, line_no_, last_time_, &rec)) {
      case FeedLineKind::kBlank:
        continue;
      case FeedLineKind::kEnd:
        done_ = true;
        clean_end_ = true;
        return std::nullopt;
      case FeedLineKind::kRecord:
        last_time_ = rec.arrival.time.seconds;
        ++records_;
        return rec;
    }
  }
}

FeedWriter::FeedWriter(std::ostream& out) : out_(&out) {
  *out_ << kFeedMagic << "\n# flow,time_s,src,dst,size_bytes,class,tenant\n";
}

void FeedWriter::write(const FeedRecord& record) {
  BASRPT_REQUIRE(!finished_, "feed writer already finished");
  *out_ << encode_feed_record(record);
}

void FeedWriter::finish() {
  if (!finished_) {
    *out_ << "end\n";
    finished_ = true;
  }
}

void write_feed(std::ostream& out, const std::vector<FeedRecord>& records) {
  FeedWriter writer(out);
  for (const FeedRecord& r : records) {
    writer.write(r);
  }
  writer.finish();
}

void write_feed_file(const std::string& path,
                     const std::vector<FeedRecord>& records) {
  std::ofstream out(path);
  BASRPT_REQUIRE(out.good(), "cannot open feed file for writing: " + path);
  write_feed(out, records);
  BASRPT_REQUIRE(out.good(), "error while writing feed file: " + path);
}

std::vector<FeedRecord> read_feed(std::istream& in) {
  FeedReader reader(in);
  std::vector<FeedRecord> records;
  while (auto rec = reader.next()) {
    records.push_back(*rec);
  }
  // A recording cut at a line boundary would otherwise replay as a
  // shorter workload.
  if (!reader.clean_end()) {
    throw ParseError(kFeedParseContext, reader.line() + 1,
                     "feed ended without its 'end' line");
  }
  return records;
}

std::vector<FeedRecord> read_feed_file(const std::string& path) {
  std::ifstream in(path);
  BASRPT_REQUIRE(in.good(), "cannot open feed file: " + path);
  return read_feed(in);
}

}  // namespace basrpt::srv
