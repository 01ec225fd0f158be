#include "ckpt/stats_codec.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/fields.hpp"
#include "common/serial.hpp"

namespace basrpt::ckpt {

void write_moments(SnapshotWriter::Section& out,
                   const stats::StreamingMoments::State& s) {
  out.i64("count", s.count);
  out.f64("mean", s.mean);
  out.f64("m2", s.m2);
  out.f64("sum", s.sum);
  out.f64("min", s.min);
  out.f64("max", s.max);
}

stats::StreamingMoments::State read_moments(SectionReader& in) {
  stats::StreamingMoments::State s;
  s.count = in.i64("count");
  s.mean = in.f64("mean");
  s.m2 = in.f64("m2");
  s.sum = in.f64("sum");
  s.min = in.f64("min");
  s.max = in.f64("max");
  return s;
}

void write_timeseries(SnapshotWriter::Section& out,
                      const stats::TimeSeries::State& s) {
  out.u64("stride", s.stride);
  out.u64("pending", s.pending);
  out.u64("points", s.points.size());
  for (const auto& p : s.points) {
    out.line("p " + f64_to_hex(p.t) + ' ' + f64_to_hex(p.value));
  }
}

stats::TimeSeries::State read_timeseries(SectionReader& in) {
  stats::TimeSeries::State s;
  s.stride = static_cast<std::size_t>(in.u64("stride"));
  if (s.stride == 0) {
    in.fail("stride must be >= 1");
  }
  s.pending = static_cast<std::size_t>(in.u64("pending"));
  const std::size_t n = in.count("points", 1);
  s.points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Each point line is `p <t-hex> <value-hex>` — two cells, one line.
    const std::string v = in.text("p");
    std::array<std::string_view, 2> cells;
    if (fields::split(v, ' ', cells) != 2) {
      in.fail("point must be '<t-hex> <value-hex>', got '" + v + "'");
    }
    stats::TimeSeries::Point p;
    try {
      p.t = f64_from_hex(cells[0]);
      p.value = f64_from_hex(cells[1]);
    } catch (const std::exception&) {
      in.fail("point cells must be hex-encoded doubles: '" + v + "'");
    }
    s.points.push_back(p);
  }
  return s;
}

void write_fct(SnapshotWriter::Section& out,
               const stats::FctAggregator::State& s) {
  out.u64("classes", s.classes.size());
  for (const auto& c : s.classes) {
    out.u64("class", static_cast<std::uint64_t>(c.cls));
    write_moments(out, c.moments);
    out.u64("fct_samples", c.fct_samples.size());
    for (const double v : c.fct_samples) {
      out.line("s " + f64_to_hex(v));
    }
    write_moments(out, c.slowdown_moments);
    out.u64("slowdown_samples", c.slowdown_samples.size());
    for (const double v : c.slowdown_samples) {
      out.line("s " + f64_to_hex(v));
    }
  }
  out.i64("bytes_completed", s.bytes_completed.count);
}

stats::FctAggregator::State read_fct(SectionReader& in) {
  stats::FctAggregator::State s;
  const std::size_t n_classes = in.count("classes", 14);
  s.classes.reserve(n_classes);
  for (std::size_t i = 0; i < n_classes; ++i) {
    stats::FctAggregator::ClassState c;
    const std::uint64_t cls = in.u64("class");
    if (cls > 1) {
      in.fail("unknown flow class " + std::to_string(cls));
    }
    c.cls = static_cast<stats::FlowClass>(cls);
    c.moments = read_moments(in);
    const std::size_t n_fct = in.count("fct_samples", 1);
    c.fct_samples.reserve(n_fct);
    for (std::size_t j = 0; j < n_fct; ++j) {
      c.fct_samples.push_back(in.f64("s"));
    }
    c.slowdown_moments = read_moments(in);
    const std::size_t n_sd = in.count("slowdown_samples", 1);
    c.slowdown_samples.reserve(n_sd);
    for (std::size_t j = 0; j < n_sd; ++j) {
      c.slowdown_samples.push_back(in.f64("s"));
    }
    s.classes.push_back(std::move(c));
  }
  s.bytes_completed = Bytes{in.i64("bytes_completed")};
  return s;
}

void write_backlog(SnapshotWriter::Section& out,
                   const queueing::BacklogRecorder::State& s) {
  write_timeseries(out, s.total);
  write_timeseries(out, s.max_ingress);
  write_timeseries(out, s.watched_voq);
}

queueing::BacklogRecorder::State read_backlog(SectionReader& in) {
  queueing::BacklogRecorder::State s;
  s.total = read_timeseries(in);
  s.max_ingress = read_timeseries(in);
  s.watched_voq = read_timeseries(in);
  return s;
}

void write_drift(SnapshotWriter::Section& out,
                 const queueing::DriftTracker::State& s) {
  out.u64("primed", s.primed ? 1 : 0);
  out.f64("last", s.last);
  write_moments(out, s.drift);
}

queueing::DriftTracker::State read_drift(SectionReader& in) {
  queueing::DriftTracker::State s;
  const std::uint64_t primed = in.u64("primed");
  if (primed > 1) {
    in.fail("primed must be 0 or 1");
  }
  s.primed = primed == 1;
  s.last = in.f64("last");
  s.drift = read_moments(in);
  return s;
}

void write_fault_stats(SnapshotWriter::Section& out,
                       const fault::FaultStats& s) {
  out.i64("transitions", s.transitions);
  out.i64("decisions_suppressed", s.decisions_suppressed);
  out.i64("flows_requeued", s.flows_requeued);
  out.i64("candidates_masked", s.candidates_masked);
}

fault::FaultStats read_fault_stats(SectionReader& in) {
  fault::FaultStats s;
  s.transitions = in.i64("transitions");
  s.decisions_suppressed = in.i64("decisions_suppressed");
  s.flows_requeued = in.i64("flows_requeued");
  s.candidates_masked = in.i64("candidates_masked");
  return s;
}

}  // namespace basrpt::ckpt
