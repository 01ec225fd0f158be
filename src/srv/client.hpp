// srv::Client: the producer-side library for the serving transport.
//
// Feeds a record batch to a basrptd listener and consumes the
// basrpt-decisions-v1 stream back, surviving everything the link can
// do short of the server disappearing for good:
//
//  * connect refused / reset → capped exponential backoff, re-dial;
//  * mid-stream disconnect → reconnect, read the new hello cursor, and
//    replay the feed from exactly that record — the server side never
//    sees a record twice and never misses one;
//  * duplicate decision frames (network replays, chaos link-dup) →
//    dropped by sequence number; gaps are tolerated (frames lost with a
//    dead connection are not re-sent — the sequence is the dedupe key,
//    not a completeness promise);
//  * a garbled frame after the hello → counted and skipped: it is lost
//    either way, and '\n' framing resynchronises on the next line (a
//    reconnect would also lose the frames behind it, `complete`
//    included, if the server was just finishing);
//  * a garbled header or hello, or an `error` fence → treated as a dead
//    connection, reconnect and replay.
//
// Each outage (the stretch from noticing a dead link to a completed
// handshake) is bounded by reconnect_deadline_sec; exceeding it throws
// ConfigError — the one way run() gives up.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/net.hpp"
#include "srv/feed.hpp"

namespace basrpt::srv {

struct ClientConfig {
  Endpoint endpoint;
  double backoff_initial_sec = 0.02;
  double backoff_factor = 2.0;
  double backoff_max_sec = 0.5;
  /// Cap on one outage (dial retries + handshake). Exceeded → ConfigError.
  double reconnect_deadline_sec = 30.0;
  /// No decisions-stream progress on a live connection for this long →
  /// assume the link is dead and reconnect.
  double io_timeout_sec = 30.0;
};

struct ClientResult {
  /// The `complete` frame's status (the run's SLO status).
  std::string status;
  std::uint64_t decisions = 0;   // unique decision frames
  std::uint64_t duplicates = 0;  // frames dropped by sequence dedupe
  std::uint64_t last_seq = 0;
  std::int64_t admitted = 0;
  std::int64_t shed = 0;
  std::int64_t reconnects = 0;  // dials after the first successful one
  std::int64_t fences = 0;      // `error` frames received
  std::int64_t corrupt_frames = 0;  // garbled frames skipped
};

class Client {
 public:
  explicit Client(const ClientConfig& config) : config_(config) {}

  /// Sends `records` (replaying across reconnects as needed) and blocks
  /// until the server's `complete` frame. Throws ConfigError when an
  /// outage outlives the reconnect deadline.
  ClientResult run(const std::vector<FeedRecord>& records);

 private:
  ClientConfig config_;
};

}  // namespace basrpt::srv
