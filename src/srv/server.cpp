#include "srv/server.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <deque>
#include <thread>

#include "common/assert.hpp"
#include "common/interrupt.hpp"
#include "common/log.hpp"

namespace basrpt::srv {

namespace {

/// Enough wall-histogram samples before the p99 is considered a signal.
constexpr std::uint64_t kMinP99Samples = 32;

std::uint64_t wall_ns_since(std::chrono::steady_clock::time_point start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return static_cast<std::uint64_t>(ns < 0 ? 0 : ns);
}

}  // namespace

Server::Server(const ServerConfig& config)
    : config_(config),
      scheduler_(sched::make_scheduler(config.scheduler)),
      health_(config.health) {
  BASRPT_REQUIRE(config_.quantum_sec > 0.0,
                 "server: quantum_sec must be positive");
  BASRPT_REQUIRE(config_.ingest_capacity > 0,
                 "server: ingest_capacity must be positive");
  budget_ns_ = config_.decision_budget_ms > 0.0
                   ? static_cast<std::uint64_t>(config_.decision_budget_ms *
                                                1e6)
                   : 0;
  sim_ = std::make_unique<flowsim::OnlineFlowSim>(config_.sim, *scheduler_);
  if (!config_.ckpt_dir.empty()) {
    ckpt_ = std::make_unique<ckpt::CheckpointManager>(
        ckpt::CheckpointManagerConfig{config_.ckpt_dir, config_.run_id,
                                      config_.ckpt_keep_last});
  }
}

Server::Server(const ServerConfig& config, const ServerCkpt& resume)
    : Server(config) {
  sim_ = std::make_unique<flowsim::OnlineFlowSim>(config_.sim, *scheduler_,
                                                  resume.sim);
  slo_.restore(resume.slo);
  health_.restore(resume.health);
  consumed_ = resume.feed_records_consumed;
  skip_records_ = resume.feed_records_consumed;
  last_ckpt_sec_ = resume.sim.now_sec;
  resumed_ = true;
  if (ckpt_) {
    // Continue numbering after the loaded checkpoint so rotation never
    // deletes it first.
    const std::string latest =
        ckpt::CheckpointManager::latest(config_.ckpt_dir, config_.run_id);
    if (!latest.empty()) {
      ckpt_->set_sequence(ckpt::CheckpointManager::sequence_of(latest) + 1);
    }
  }
}

Server::~Server() = default;

void Server::pump_health(double now_sec) {
  HealthSignals signals;
  signals.now_sec = now_sec;
  signals.backlog_bytes = sim_->backlog().count;
  signals.active_flows =
      static_cast<std::int64_t>(sim_->active_flows());
  signals.in_disruption = sim_->in_disruption();
  signals.slow_consumer = source_ != nullptr && source_->slow_consumer();
  const obs::LatencyHistogram& d = slo_.decision_ns();
  signals.decision_p99_ms =
      d.count() >= kMinP99Samples ? d.quantile(0.99) / 1e6 : -1.0;
  health_.update(signals);
}

void Server::advance_in_quanta(double target) {
  double now = sim_->now().seconds;
  while (now + config_.quantum_sec < target) {
    now += config_.quantum_sec;
    sim_->advance_to(SimTime{now});
    pump_health(now);
  }
  if (target > now) {
    sim_->advance_to(SimTime{target});
  }
}

void Server::pace_to(double feed_time_sec) {
  if (config_.pace <= 0.0) {
    return;
  }
  // Sleep in short slices so SIGTERM/SIGINT are honored within ~50 ms
  // even while paused between sparse arrivals.
  const double target_wall_sec =
      (feed_time_sec - pace_base_sec_) / config_.pace;
  while (!drain_requested() && !interrupt_requested()) {
    const double wall_sec =
        static_cast<double>(wall_ns_since(pace_start_)) / 1e9;
    const double behind = target_wall_sec - wall_sec;
    if (behind <= 0.0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::min(behind, 0.05)));
  }
}

void Server::write_checkpoint() {
  if (!ckpt_) {
    return;
  }
  last_checkpoint_ = ckpt_->write(encode_server_ckpt(capture()));
}

void Server::maybe_checkpoint(double now_sec) {
  if (!ckpt_ || config_.ckpt_every_sec <= 0.0 ||
      now_sec - last_ckpt_sec_ < config_.ckpt_every_sec) {
    return;
  }
  last_ckpt_sec_ = now_sec;
  write_checkpoint();
}

ServerCkpt Server::capture() const {
  ServerCkpt state;
  state.feed_records_consumed = consumed_;
  // One decision per consumed record: the ack sequence a reconnecting
  // producer resumes against is exactly the consumed count.
  state.decisions_emitted = consumed_;
  state.sim = sim_->capture();
  state.slo = slo_.snapshot();
  state.health = health_.snapshot();
  return state;
}

void Server::run_loop(RecordSource& feed) {
  std::deque<FeedRecord> queue;
  while (true) {
    if (drain_requested()) {
      // Stop admitting: queued-but-unprocessed records are abandoned
      // (they were never counted as consumed, so a later resume of the
      // same feed re-reads them).
      return;
    }
    if (interrupt_requested()) {
      // A socket source parks in poll() rather than the engine loop, so
      // the engine's own interrupt polling may never run; surface the
      // request here, at a decision boundary.
      throw InterruptedError(interrupt_signal());
    }
    if (flush_requested()) {
      // SIGHUP: emit state, keep serving. This is a decision boundary
      // (the previous record is fully processed), so the checkpoint is
      // resume-safe.
      clear_flush();
      write_checkpoint();
      if (config_.flush_hook) {
        config_.flush_hook(*this);
      }
    }
    // Refill the bounded read-ahead; off a pipe the kernel backpressures
    // the producer once we stop pulling. Block only when the queue is
    // empty — otherwise there is work to do.
    while (queue.size() < config_.ingest_capacity && !feed.done()) {
      std::optional<FeedRecord> rec = feed.next(queue.empty());
      if (!rec) {
        break;
      }
      queue.push_back(*rec);
    }
    slo_.record_queue_depth(queue.size());
    if (queue.empty()) {
      if (feed.done()) {
        return;  // feed exhausted (clean end or producer gone)
      }
      continue;  // spurious wakeup: re-check the control flags
    }
    const FeedRecord rec = queue.front();
    queue.pop_front();
    const double t = rec.arrival.time.seconds;
    pace_to(t);
    if (drain_requested()) {
      return;  // record not counted as consumed: a resume re-reads it
    }
    BASRPT_REQUIRE(
        t <= config_.sim.horizon.seconds,
        "feed record at t=" + std::to_string(t) +
            "s is past the configured horizon; raise --horizon");
    advance_in_quanta(t);
    pump_health(t);
    ++consumed_;
    if (!health_.admitting()) {
      slo_.record_shed(rec.tenant, t);
      feed.notify_decision(Decision{consumed_, t, false, rec.tenant});
      continue;
    }
    slo_.record_admit(rec.tenant);
    const auto start = std::chrono::steady_clock::now();
    sim_->offer(rec.arrival);
    sim_->advance_to(rec.arrival.time);  // executes the arrival: decision
    slo_.record_decision(wall_ns_since(start), budget_ns_);
    feed.notify_decision(Decision{consumed_, t, true, rec.tenant});
    // Decision boundary — the only instant where a checkpoint resumes
    // bit-deterministically (flowsim/online.hpp).
    maybe_checkpoint(t);
  }
}

void Server::drain() {
  const double drain_start = sim_->now().seconds;
  health_.begin_drain(drain_start);
  const double grace_end = drain_start + config_.drain_grace_sec;
  double now = drain_start;
  while (sim_->active_flows() > 0 && now < grace_end) {
    now = std::min(now + config_.quantum_sec, grace_end);
    sim_->advance_to(SimTime{now});
  }
}

ServeResult Server::serve(RecordSource& feed) {
  const auto wall_start = std::chrono::steady_clock::now();
  pace_start_ = wall_start;
  pace_base_sec_ = sim_->now().seconds;
  source_ = &feed;
  ServeResult result;
  std::string status;
  try {
    if (!feed.resumes_at_cursor()) {
      // File/pipe resume: re-read and discard the records the captured
      // run already processed. A socket source instead advertises the
      // cursor in its hello frame and the producer replays from there.
      for (std::uint64_t skipped = 0; skipped < skip_records_; ++skipped) {
        BASRPT_REQUIRE(feed.next(true).has_value(),
                       "resume: feed ended before the checkpoint cursor (" +
                           std::to_string(skip_records_) +
                           " records); wrong feed for this checkpoint?");
      }
    }
    run_loop(feed);
    const bool signalled = drain_requested();
    drain();
    status = signalled || !feed.clean_end() ? "drained" : "completed";
    result.exit_code = 0;
    write_checkpoint();
    feed.finish(status, consumed_);
  } catch (const InterruptedError& e) {
    status = "interrupted";
    const int sig = e.signal_number() > 0 ? e.signal_number() : SIGINT;
    result.exit_code = 128 + sig;
    BASRPT_LOG(kWarn) << "srv: interrupted by signal " << sig
                      << "; writing checkpoint";
    write_checkpoint();
    feed.finish(status, consumed_);
  }
  source_ = nullptr;
  result.totals.status = status;
  result.totals.resumed = resumed_;
  result.totals.feed_seconds = sim_->now().seconds;
  result.totals.wall_seconds =
      static_cast<double>(wall_ns_since(wall_start)) / 1e9;
  result.totals.records_consumed = static_cast<std::int64_t>(consumed_);
  result.totals.flows_arrived = sim_->flows_arrived();
  result.totals.flows_completed = sim_->flows_completed();
  result.totals.active_flows_at_end =
      static_cast<std::int64_t>(sim_->active_flows());
  result.totals.backlog_bytes_at_end = sim_->backlog().count;
  result.totals.delivered_bytes = sim_->delivered().count;
  result.totals.scheduler_invocations =
      static_cast<std::int64_t>(sim_->scheduler_invocations());
  result.last_checkpoint = last_checkpoint_;
  return result;
}

}  // namespace basrpt::srv
