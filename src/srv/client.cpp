#include "srv/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "common/assert.hpp"
#include "common/fields.hpp"
#include "srv/wire.hpp"

namespace basrpt::srv {

namespace {

double mono_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ClientResult Client::run(const std::vector<FeedRecord>& records) {
  // Pre-encode once; replay slices reuse the same bytes.
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const FeedRecord& r : records) {
    lines.push_back(encode_feed_record(r));
  }

  ClientResult result;
  bool connected_once = false;
  double outage_start = mono_now();
  double backoff = config_.backoff_initial_sec;

  for (;;) {
    // ---- dial, with capped exponential backoff -------------------------
    UniqueFd fd = connect_endpoint(config_.endpoint);
    if (!fd.valid()) {
      if (mono_now() - outage_start > config_.reconnect_deadline_sec) {
        throw ConfigError("client: cannot reach " + config_.endpoint.str() +
                          " within the reconnect deadline");
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * config_.backoff_factor,
                         config_.backoff_max_sec);
      continue;
    }
    set_nonblocking(fd.get());
    if (connected_once) {
      ++result.reconnects;
    }
    connected_once = true;
    backoff = config_.backoff_initial_sec;

    // ---- one connection ------------------------------------------------
    std::string inbuf;
    std::string outbuf;
    std::size_t in_lines = 0;
    bool header_seen = false;
    bool hello_seen = false;
    double last_progress = mono_now();

    for (;;) {
      struct pollfd pfd = {fd.get(), POLLIN, 0};
      if (!outbuf.empty()) {
        pfd.events |= POLLOUT;
      }
      poll_fds(&pfd, 1, 100);
      const double now = mono_now();

      // Handshake stall counts against the outage deadline; a stall
      // after the handshake is an io_timeout_sec reconnect.
      if (!hello_seen &&
          now - outage_start > config_.reconnect_deadline_sec) {
        throw ConfigError("client: no hello from " + config_.endpoint.str() +
                          " within the reconnect deadline");
      }
      if (hello_seen && now - last_progress > config_.io_timeout_sec) {
        break;  // dead link: reconnect
      }

      // ---- read decisions ---------------------------------------------
      char chunk[4096];
      const long got = read_some(fd.get(), chunk, sizeof(chunk));
      if (got == 0) {
        break;  // server closed: reconnect (complete would have arrived)
      }
      if (got < 0 && got != -EAGAIN && got != -EWOULDBLOCK) {
        break;
      }
      if (got > 0) {
        last_progress = now;
        inbuf.append(chunk, static_cast<std::size_t>(got));
        bool drop_link = false;
        std::size_t pos = 0;
        for (;;) {
          const std::size_t nl = inbuf.find('\n', pos);
          if (nl == std::string::npos) {
            break;
          }
          const std::string_view line =
              fields::strip_cr(std::string_view(inbuf).substr(pos, nl - pos));
          pos = nl + 1;
          ++in_lines;
          if (!header_seen) {
            if (line != kDecisionsMagic) {
              drop_link = true;  // not our protocol: reconnect
              break;
            }
            header_seen = true;
            continue;
          }
          DecisionMsg msg;
          try {
            msg = parse_decision_line(line, in_lines);
          } catch (const ParseError&) {
            if (!hello_seen) {
              drop_link = true;  // no cursor yet: reconnect for a clean hello
              break;
            }
            // A garbled frame is lost either way (decisions are never
            // resent) and '\n' framing resynchronises on the next line.
            // Dropping the link would also drop the frames behind it —
            // the `complete` of a server that is just finishing included.
            ++result.corrupt_frames;
            continue;
          }
          switch (msg.kind) {
            case DecisionMsg::Kind::kHello: {
              if (hello_seen) {
                drop_link = true;  // mid-stream hello: protocol violation
                break;
              }
              if (msg.cursor > lines.size()) {
                throw ConfigError(
                    "client: server cursor " + std::to_string(msg.cursor) +
                    " exceeds the " + std::to_string(lines.size()) +
                    "-record feed");
              }
              hello_seen = true;
              // Replay from the cursor: header, the un-consumed tail,
              // then the sentinel.
              outbuf = std::string(kFeedMagic) + "\n";
              for (std::size_t k = msg.cursor; k < lines.size(); ++k) {
                outbuf += lines[k];
              }
              outbuf += "end\n";
              break;
            }
            case DecisionMsg::Kind::kDecision:
              if (msg.decision.seq <= result.last_seq) {
                ++result.duplicates;
                break;
              }
              result.last_seq = msg.decision.seq;
              ++result.decisions;
              if (msg.decision.admitted) {
                ++result.admitted;
              } else {
                ++result.shed;
              }
              break;
            case DecisionMsg::Kind::kComplete:
              result.status = msg.status;
              if (msg.seq > result.last_seq) {
                result.last_seq = msg.seq;
              }
              return result;
            case DecisionMsg::Kind::kError:
              ++result.fences;
              drop_link = true;  // we are fenced: reconnect clean
              break;
          }
          if (drop_link) {
            break;
          }
        }
        inbuf.erase(0, pos);
        if (drop_link) {
          break;
        }
      }

      // ---- write replay bytes -----------------------------------------
      bool write_dead = false;
      while (!outbuf.empty()) {
        const long put = write_some(fd.get(), outbuf.data(), outbuf.size());
        if (put > 0) {
          last_progress = mono_now();
          outbuf.erase(0, static_cast<std::size_t>(put));
          continue;
        }
        if (put == -EAGAIN || put == -EWOULDBLOCK) {
          break;
        }
        write_dead = true;  // EPIPE/reset: reconnect
        break;
      }
      if (write_dead) {
        break;
      }
    }

    fd.reset();
    outage_start = mono_now();  // a fresh outage window for the re-dial
  }
}

}  // namespace basrpt::srv
