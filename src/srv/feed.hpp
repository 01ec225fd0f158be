// basrpt-feed-v1: the versioned line format of every arrival stream.
//
// basrptd's ingest is a text stream — replayed from a recorded file,
// piped in from a generator, or framed over a socket — one record per
// line:
//
//   basrpt-feed-v1
//   # flow,time_s,src,dst,size_bytes,class[,tenant]
//   flow,0.000125,3,9,20000,q,0
//   flow,0.00031,4,5,1048576,b,1
//   end
//
// The same format records a simulator workload so it can be replayed
// byte-for-byte across schedulers, commits and machines
// (examples/trace_workflow.cpp): %.17g times parse back to the same bits.
//
// `class` is `q` (query) or `b` (background). `tenant` is an optional
// non-negative id used by admission control and per-tenant shed
// accounting; absent means tenant 0. The `end` sentinel marks a cleanly
// terminated feed; EOF without it means the producer went away (pipe
// closed) — the server treats that as "stop admitting and drain", not as
// an error. A final line with no trailing newline is a torn write and
// raises ParseError. CRLF is tolerated, every error carries its 1-based
// line number, and numbers go through common/fields.hpp, so overflowing
// or non-finite values are rejected rather than wrapped.
//
// FeedReader is incremental — next() reads one line — so it works
// unbuffered off a pipe; nothing about it assumes the feed is finite.
// The per-line grammar is exposed as parse_feed_line() so the socket
// transport's connection state machine (srv/connection.hpp) validates
// frames with exactly the same rules and error text. Neither allocates
// per record.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.hpp"
#include "workload/traffic.hpp"

namespace basrpt::srv {

inline constexpr const char* kFeedMagic = "basrpt-feed-v1";
inline constexpr const char* kFeedParseContext = "feed";

/// One feed record: a flow arrival plus the tenant it belongs to.
struct FeedRecord {
  workload::FlowArrival arrival;
  std::int32_t tenant = 0;
};

/// One admission decision, as streamed back to basrpt-decisions-v1
/// consumers. `seq` is 1-based and equals the server's consumed-record
/// count at the moment the decision was made — every consumed record
/// produces exactly one decision (admit or shed), so the sequence is
/// gapless on the server side and doubles as the replay cursor.
struct Decision {
  std::uint64_t seq = 0;
  double time_s = 0.0;
  bool admitted = false;
  std::int32_t tenant = 0;
};

/// What Server::serve consumes: an ordered record stream plus an
/// optional reverse channel for decisions. FeedReader implements the
/// forward half over files/pipes; SocketTransport implements both
/// halves over a listener socket.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Next record. With may_block=false, returns nullopt immediately
  /// when nothing is buffered. With may_block=true the source may wait
  /// for input, but may also return a *spurious* nullopt when a control
  /// flag (drain/interrupt/flush) or a transport lull needs the
  /// caller's attention — check done() before concluding the feed
  /// ended.
  virtual std::optional<FeedRecord> next(bool may_block) = 0;

  /// True once the stream is over: no record will ever come again.
  virtual bool done() const = 0;
  /// True when the feed ended via the `end` sentinel rather than the
  /// producer going away.
  virtual bool clean_end() const = 0;

  /// True when the source positions itself at the resume cursor (the
  /// socket transport's hello/replay handshake does) so serve() must
  /// not skip already-consumed records itself.
  virtual bool resumes_at_cursor() const { return false; }

  /// Called at every decision boundary, in sequence order.
  virtual void notify_decision(const Decision&) {}

  /// Advisory for HealthMonitor: the decisions-out consumer is not
  /// draining its stream (send buffer over cap).
  virtual bool slow_consumer() const { return false; }

  /// End of serving: emit the final `complete,<seq>,<status>` frame and
  /// flush it out. Called once, after the run's status is known.
  virtual void finish(const std::string& status, std::uint64_t last_seq) {
    (void)status;
    (void)last_seq;
  }
};

/// Classification of one feed line by parse_feed_line().
enum class FeedLineKind {
  kRecord,  ///< a `flow,...` record; *out was filled in
  kBlank,   ///< blank line or `#` comment — skip
  kEnd,     ///< the `end` sentinel
};

/// Parses one feed line (CRLF already stripped by the caller or not —
/// a trailing '\r' is tolerated here too). `line_no` is 1-based and
/// used in error text; `last_time` is the previous record's time for
/// the non-decreasing check. Throws ParseError on any malformed
/// construct. The header line is NOT handled here.
FeedLineKind parse_feed_line(std::string_view line, std::size_t line_no,
                             double last_time, FeedRecord* out);

/// One `flow,...\n` line for `record`, exactly as FeedWriter emits it
/// (%.17g times round-trip bit-exact). Used by FeedWriter and by the
/// socket client's replay encoder.
std::string encode_feed_record(const FeedRecord& record);

/// Incremental reader. Validates the header on construction; next()
/// yields records until the `end` sentinel or EOF. Throws ParseError
/// (line-numbered) on any malformed construct.
class FeedReader : public RecordSource {
 public:
  explicit FeedReader(std::istream& in);
  /// Reads from an arbitrary LineSource (e.g. FdLineSource on stdin,
  /// which survives EINTR from the SIGHUP flush handler). The source
  /// must outlive the reader.
  explicit FeedReader(LineSource& lines);

  /// Next record, or nullopt when the feed ended. Safe to call again
  /// after the end (keeps returning nullopt).
  std::optional<FeedRecord> next();
  std::optional<FeedRecord> next(bool may_block) override {
    (void)may_block;  // line sources block on their own terms
    return next();
  }

  /// True once the feed ended via the `end` sentinel (producer finished)
  /// rather than a bare EOF (producer went away).
  bool clean_end() const override { return clean_end_; }
  bool done() const override { return done_; }

  std::size_t records() const { return records_; }
  /// 1-based line number of the last line consumed.
  std::size_t line() const { return line_no_; }

 private:
  void read_header();

  std::unique_ptr<IstreamLineSource> owned_;  // istream ctor only
  LineSource* lines_;
  std::string line_;  // reused: steady-state next() does not allocate
  std::size_t line_no_ = 1;
  std::size_t records_ = 0;
  double last_time_ = 0.0;
  bool done_ = false;
  bool clean_end_ = false;
};

/// Streaming writer: header on construction, one line per record,
/// `end` from finish().
class FeedWriter {
 public:
  explicit FeedWriter(std::ostream& out);
  void write(const FeedRecord& record);
  void finish();

 private:
  std::ostream* out_;
  bool finished_ = false;
};

void write_feed(std::ostream& out, const std::vector<FeedRecord>& records);
void write_feed_file(const std::string& path,
                     const std::vector<FeedRecord>& records);
/// Every record of a whole feed. Unlike a FeedReader, which the server
/// drains to a bare EOF, these throw ParseError when the `end` line is
/// missing.
std::vector<FeedRecord> read_feed(std::istream& in);
std::vector<FeedRecord> read_feed_file(const std::string& path);

}  // namespace basrpt::srv
