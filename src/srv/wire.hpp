// basrpt-decisions-v1: the sequence-numbered decisions-out stream.
//
// Over a serving socket the daemon talks back. After accepting a
// producer it opens the stream with a header and a replay cursor, then
// emits one frame per consumed record, a terminal status, and — when a
// connection must be fenced — a positioned error:
//
//   basrpt-decisions-v1
//   hello,<cursor>
//   decision,<seq>,<time_s>,<a|s>,<tenant>
//   ...
//   complete,<seq>,<status>
//   error,<line>,<byte_offset>,<reason>
//
// `hello,<cursor>` tells the producer how many feed records the server
// session has already accepted (0 on a fresh session; the checkpointed
// consumed count after a crash-resume): the client replays its feed
// from exactly that record, which is what makes reconnect-with-replay
// deliver every record exactly once. `decision` frames carry a gapless
// 1-based sequence equal to the server's consumed count — `a` admitted,
// `s` shed — so a client that sees duplicate delivery (network-level
// replays, chaos link-dup) drops frames with seq <= the last one seen.
// `complete` is the final frame of a session: its status matches the
// run's SLO status (complete/drained/degraded/interrupted/...).
// `error` frames precede a fence: the offending line number and byte
// offset within this connection's inbound stream, then the parse
// reason; the connection is quarantined, never the daemon.
//
// Line discipline matches basrpt-feed-v1: '\n' terminated, CRLF
// tolerated on parse, times as %.17g for bit-exact round-trips.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "srv/feed.hpp"

namespace basrpt::srv {

inline constexpr const char* kDecisionsMagic = "basrpt-decisions-v1";
inline constexpr const char* kDecisionsParseContext = "decisions";

/// One parsed decisions-stream frame (client side).
struct DecisionMsg {
  enum class Kind { kHello, kDecision, kComplete, kError };
  Kind kind = Kind::kHello;
  std::uint64_t cursor = 0;   // kHello: replay-from record index
  Decision decision;          // kDecision
  std::uint64_t seq = 0;      // kComplete: final sequence
  std::string status;         // kComplete
  std::uint64_t line = 0;     // kError: 1-based line in the feed stream
  std::uint64_t offset = 0;   // kError: byte offset of that line
  std::string reason;         // kError
};

std::string encode_hello(std::uint64_t cursor);
std::string encode_decision(const Decision& d);
std::string encode_complete(std::uint64_t seq, const std::string& status);
std::string encode_error(std::uint64_t line, std::uint64_t byte_offset,
                         const std::string& reason);

/// Parses one frame line (header excluded). `line_no` is the 1-based
/// position in the decisions stream, used in error text. Throws
/// ParseError on malformed frames — the client reconnects when that is
/// the hello and skips the frame after it (srv/client.hpp).
DecisionMsg parse_decision_line(std::string_view line, std::size_t line_no);

}  // namespace basrpt::srv
