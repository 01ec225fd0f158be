// Per-connection state machine for the serving listener.
//
// Pure logic, no sockets: bytes go in through on_bytes(), frames come
// out through pending_output()/consume_output(), and every method that
// can advance time-based state takes an explicit `now` (monotonic
// seconds) — so the whole machine is table-testable with a fake clock.
// SocketTransport (srv/transport.hpp) is the thin poll-loop shell that
// feeds it real fds and real time.
//
// Lifecycle: the first inbound line must be the basrpt-feed-v1 magic;
// after that each line is parsed with exactly the feed grammar. A
// malformed line is a *poison frame*: the connection queues an
// `error,<line>,<byte_offset>,<reason>` frame, stops reading, flushes,
// and asks to be closed (fenced). The daemon never dies and the session
// survives — the producer reconnects and replays from the hello cursor.
//
// Outbound frames live in a bounded send buffer. When the peer stops
// draining: first backpressure (reading_paused() — the transport stops
// reading feed bytes, which propagates to the producer via TCP/UDS flow
// control), then after `write_stall_sec` over cap the connection sheds
// the oldest *sheddable* frames (decisions; never hello/error/complete,
// never a partially written frame) and counts them. A peer that makes
// no write progress for `write_timeout_sec` is closed.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "srv/feed.hpp"

namespace basrpt::srv {

struct ConnectionConfig {
  /// No inbound bytes while input is still expected → close.
  double read_timeout_sec = 30.0;
  /// Send buffer stuck (no write progress) → close.
  double write_timeout_sec = 10.0;
  /// Send buffer over cap for this long → shed sheddable frames.
  double write_stall_sec = 2.0;
  /// Outbound buffer cap in bytes; above it reading pauses.
  std::size_t send_buffer_cap = 256 * 1024;
  /// Longest accepted line (a frame with no '\n' beyond this is poison).
  std::size_t max_line_bytes = 4096;
};

class Connection {
 public:
  /// Queues the stream header and `hello,<cursor>` immediately.
  Connection(const ConnectionConfig& config, std::uint64_t hello_cursor,
             double now);

  // ---- inbound ----------------------------------------------------------
  /// Feeds raw bytes; parses complete lines into records. Malformed
  /// input fences the connection (never throws).
  void on_bytes(const char* data, std::size_t n, double now);
  /// Peer closed its end. The producer process is gone: nothing more
  /// can be delivered to it, so the connection asks to close.
  void on_peer_eof();

  bool has_record() const { return !records_.empty(); }
  std::optional<FeedRecord> take_record();
  /// The `end` sentinel arrived: the whole feed is in.
  bool saw_end() const { return saw_end_; }

  /// True while the transport should NOT read from the socket: fenced,
  /// feed complete, or send-buffer backpressure.
  bool reading_paused() const {
    return fenced_ || saw_end_ || over_cap();
  }

  // ---- outbound ---------------------------------------------------------
  void push_decision(const Decision& d, double now);
  void push_complete(std::uint64_t seq, const std::string& status,
                     double now);

  bool has_output() const { return !out_.empty(); }
  /// The next contiguous bytes to write (suffix of the front frame).
  std::string_view pending_output() const;
  /// Records that `n` bytes of pending_output() were written.
  void consume_output(std::size_t n, double now);

  /// Send buffer currently above cap (the slow-consumer advisory that
  /// HealthMonitor surfaces as a degraded cause).
  bool over_cap() const { return out_bytes_ > config_.send_buffer_cap; }

  // ---- clock / close ----------------------------------------------------
  /// Advances timeout and shed logic; call on every poll tick.
  void tick(double now);

  bool want_close() const { return want_close_; }
  const std::string& close_reason() const { return close_reason_; }
  /// The `complete` frame was queued and every outbound byte has been
  /// handed to the socket — the session outcome reached this producer.
  bool complete_flushed() const { return complete_queued_ && out_.empty(); }
  /// Fenced = quarantined after a poison frame (a kind of want_close
  /// that the transport counts separately).
  bool fenced() const { return fenced_; }

  // ---- accounting -------------------------------------------------------
  std::int64_t shed_frames() const { return shed_frames_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  /// 1-based count of complete inbound lines parsed.
  std::size_t lines() const { return line_no_; }

 private:
  struct OutFrame {
    bool sheddable = false;
    std::string bytes;
  };

  void parse_line(std::string_view line, std::uint64_t byte_offset,
                  double now);
  void fence(std::size_t line_no, std::uint64_t byte_offset,
             const std::string& reason, double now);
  void enqueue(bool sheddable, std::string frame, double now);
  void request_close(const std::string& reason);
  void shed_if_stalled(double now);

  ConnectionConfig config_;

  // inbound
  std::string recv_buf_;
  std::deque<FeedRecord> records_;
  double last_time_ = 0.0;
  std::size_t line_no_ = 0;         // complete lines consumed
  std::uint64_t bytes_received_ = 0;
  std::uint64_t consumed_ofs_ = 0;  // stream offset of recv_buf_[0]
  bool header_seen_ = false;
  bool saw_end_ = false;
  bool peer_eof_ = false;

  // outbound
  std::deque<OutFrame> out_;
  std::size_t out_front_off_ = 0;  // partial-write cursor into out_.front()
  std::size_t out_bytes_ = 0;      // unsent bytes across all frames

  // fencing / close
  bool fenced_ = false;
  bool want_close_ = false;
  bool complete_queued_ = false;
  std::string close_reason_;
  std::int64_t shed_frames_ = 0;

  // clocks
  double last_read_sec_ = 0.0;
  double last_write_progress_sec_ = 0.0;
  double over_cap_since_sec_ = 0.0;
  bool over_cap_latched_ = false;
};

}  // namespace basrpt::srv
