#include "srv/connection.hpp"

#include "common/assert.hpp"
#include "common/fields.hpp"
#include "srv/wire.hpp"

namespace basrpt::srv {

Connection::Connection(const ConnectionConfig& config,
                       std::uint64_t hello_cursor, double now)
    : config_(config), last_read_sec_(now), last_write_progress_sec_(now) {
  enqueue(/*sheddable=*/false,
          std::string(kDecisionsMagic) + "\n" + encode_hello(hello_cursor),
          now);
}

void Connection::on_bytes(const char* data, std::size_t n, double now) {
  if (fenced_ || want_close_ || saw_end_) {
    return;  // quarantined or feed complete: trailing bytes are ignored
  }
  last_read_sec_ = now;
  bytes_received_ += n;
  recv_buf_.append(data, n);

  std::size_t pos = 0;
  while (!fenced_ && !saw_end_) {
    const std::size_t nl = recv_buf_.find('\n', pos);
    if (nl == std::string::npos) {
      break;
    }
    const std::string_view line =
        std::string_view(recv_buf_).substr(pos, nl - pos);
    const std::uint64_t line_offset = consumed_ofs_;
    consumed_ofs_ += (nl - pos) + 1;
    pos = nl + 1;
    ++line_no_;
    parse_line(line, line_offset, now);
  }
  recv_buf_.erase(0, pos);
  if (!fenced_ && !saw_end_ && recv_buf_.size() > config_.max_line_bytes) {
    fence(line_no_ + 1, consumed_ofs_,
          "frame exceeds " + std::to_string(config_.max_line_bytes) +
              " bytes without a newline",
          now);
  }
}

void Connection::parse_line(std::string_view raw, std::uint64_t byte_offset,
                            double now) {
  if (!header_seen_) {
    if (fields::strip_cr(raw) != kFeedMagic) {
      fence(line_no_, byte_offset,
            std::string("expected '") + kFeedMagic + "'", now);
      return;
    }
    header_seen_ = true;
    return;
  }
  try {
    FeedRecord rec;
    switch (parse_feed_line(raw, line_no_, last_time_, &rec)) {
      case FeedLineKind::kBlank:
        break;
      case FeedLineKind::kEnd:
        saw_end_ = true;
        break;
      case FeedLineKind::kRecord:
        last_time_ = rec.arrival.time.seconds;
        records_.push_back(rec);
        break;
    }
  } catch (const ParseError& e) {
    fence(line_no_, byte_offset, e.what(), now);
  }
}

void Connection::on_peer_eof() {
  peer_eof_ = true;
  // The producer process is gone; decisions have nowhere to go. The
  // transport still drains any records already parsed — on a non-clean
  // close the session stays open awaiting a reconnect.
  request_close(saw_end_ ? "peer closed after end" : "peer closed");
}

std::optional<FeedRecord> Connection::take_record() {
  if (records_.empty()) {
    return std::nullopt;
  }
  const FeedRecord rec = records_.front();
  records_.pop_front();
  return rec;
}

void Connection::push_decision(const Decision& d, double now) {
  if (fenced_ || want_close_ || complete_queued_) {
    return;  // no consumer for this frame; seq gaps are legal client-side
  }
  enqueue(/*sheddable=*/true, encode_decision(d), now);
}

void Connection::push_complete(std::uint64_t seq, const std::string& status,
                               double now) {
  if (fenced_ || want_close_ || complete_queued_) {
    return;
  }
  complete_queued_ = true;
  enqueue(/*sheddable=*/false, encode_complete(seq, status), now);
}

std::string_view Connection::pending_output() const {
  if (out_.empty()) {
    return {};
  }
  return std::string_view(out_.front().bytes).substr(out_front_off_);
}

void Connection::consume_output(std::size_t n, double now) {
  last_write_progress_sec_ = now;
  BASRPT_ASSERT(n <= out_bytes_, "consumed more output than pending");
  out_bytes_ -= n;
  while (n > 0) {
    const std::size_t remaining = out_.front().bytes.size() - out_front_off_;
    if (n >= remaining) {
      n -= remaining;
      out_.pop_front();
      out_front_off_ = 0;
    } else {
      out_front_off_ += n;
      n = 0;
    }
  }
  if (out_.empty() && (fenced_ || complete_queued_)) {
    request_close("final frame delivered");
  }
}

void Connection::tick(double now) {
  if (want_close_) {
    return;
  }
  if ((fenced_ || complete_queued_) && out_.empty()) {
    request_close("final frame delivered");
    return;
  }
  if (!saw_end_ && !fenced_ &&
      now - last_read_sec_ > config_.read_timeout_sec) {
    request_close("read timeout");
    return;
  }
  if (!out_.empty() &&
      now - last_write_progress_sec_ > config_.write_timeout_sec) {
    request_close("write timeout");
    return;
  }
  shed_if_stalled(now);
}

void Connection::shed_if_stalled(double now) {
  if (out_bytes_ <= config_.send_buffer_cap) {
    over_cap_latched_ = false;
    return;
  }
  if (!over_cap_latched_) {
    over_cap_latched_ = true;
    over_cap_since_sec_ = now;
    return;
  }
  if (now - over_cap_since_sec_ < config_.write_stall_sec) {
    return;
  }
  // Shed oldest sheddable frames first; never the partially-written
  // front frame (that would corrupt the stream mid-line) and never
  // hello/error/complete.
  for (std::size_t k = 0; k < out_.size() &&
                          out_bytes_ > config_.send_buffer_cap;) {
    const bool front_partial = k == 0 && out_front_off_ > 0;
    if (out_[k].sheddable && !front_partial) {
      out_bytes_ -= out_[k].bytes.size();
      out_.erase(out_.begin() + static_cast<std::ptrdiff_t>(k));
      ++shed_frames_;
    } else {
      ++k;
    }
  }
  over_cap_since_sec_ = now;  // re-arm: shed again only after another stall
}

void Connection::fence(std::size_t line_no, std::uint64_t byte_offset,
                       const std::string& reason, double now) {
  fenced_ = true;
  close_reason_ = "fenced: " + reason;
  records_.clear();  // never act on records after the poison point
  enqueue(/*sheddable=*/false, encode_error(line_no, byte_offset, reason),
          now);
}

void Connection::enqueue(bool sheddable, std::string frame, double now) {
  if (out_.empty()) {
    // The write clock measures progress while output is pending; an
    // idle gap before this frame is not a stall.
    last_write_progress_sec_ = now;
  }
  out_bytes_ += frame.size();
  out_.push_back(OutFrame{sheddable, std::move(frame)});
}

void Connection::request_close(const std::string& reason) {
  want_close_ = true;
  if (close_reason_.empty()) {
    close_reason_ = reason;
  }
}

}  // namespace basrpt::srv
