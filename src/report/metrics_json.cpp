#include "report/metrics_json.hpp"

#include <fstream>
#include <ostream>

#include "common/assert.hpp"
#include "perf/json.hpp"

namespace basrpt::report {

namespace {

using perf::json::Value;

Value integer(std::uint64_t v) {
  return Value::number(static_cast<double>(v));
}

Value histogram_json(const obs::LatencyHistogram& h) {
  Value doc = Value::object();
  doc.set("count", integer(h.count()));
  doc.set("sum", integer(h.sum()));
  doc.set("min", integer(h.min()));
  doc.set("max", integer(h.max()));
  doc.set("mean", Value::number(h.mean()));
  doc.set("p50", Value::number(h.quantile(0.5)));
  doc.set("p90", Value::number(h.quantile(0.9)));
  doc.set("p99", Value::number(h.quantile(0.99)));
  doc.set("p999", Value::number(h.quantile(0.999)));
  doc.set("p9999", Value::number(h.quantile(0.9999)));
  Value buckets = Value::array();
  for (std::size_t k = 0; k < obs::LatencyHistogram::kBuckets; ++k) {
    if (h.bucket_count(k) == 0) {
      continue;
    }
    Value bucket = Value::object();
    bucket.set("lo", integer(obs::LatencyHistogram::bucket_lower(k)));
    bucket.set("count", integer(h.bucket_count(k)));
    buckets.push(std::move(bucket));
  }
  doc.set("buckets", std::move(buckets));
  return doc;
}

void write_histogram_csv(std::ostream& out, const char* kind,
                         const std::string& name,
                         const obs::LatencyHistogram& h) {
  const std::string row = std::string(kind) + "," + name + ",";
  out << row << "count," << h.count() << "\n";
  out << row << "sum," << h.sum() << "\n";
  out << row << "min," << h.min() << "\n";
  out << row << "max," << h.max() << "\n";
  out << row << "mean," << h.mean() << "\n";
  out << row << "p50," << h.quantile(0.5) << "\n";
  out << row << "p90," << h.quantile(0.9) << "\n";
  out << row << "p99," << h.quantile(0.99) << "\n";
  out << row << "p999," << h.quantile(0.999) << "\n";
  out << row << "p9999," << h.quantile(0.9999) << "\n";
}

/// Note values are free-form text (stall diagnostics carry commas), so
/// CSV cells holding them are RFC-4180-quoted.
std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else if (c == '\n' || c == '\r') {
      out += ' ';  // keep the file line-oriented for grep
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  BASRPT_REQUIRE(out.good(), "cannot open metrics output file: " + path);
  return out;
}

}  // namespace

void write_metrics_json(std::ostream& out, const obs::Registry& registry,
                        const std::string& status) {
  Value doc = Value::object();
  doc.set("status", Value::string(status));
  Value counters = Value::object();
  for (const auto& [name, counter] : registry.counters()) {
    counters.set(name, Value::number(static_cast<double>(counter.value())));
  }
  doc.set("counters", std::move(counters));
  Value gauges = Value::object();
  for (const auto& [name, gauge] : registry.gauges()) {
    Value g = Value::object();
    g.set("value", Value::number(gauge.value()));
    g.set("max", Value::number(gauge.max()));
    gauges.set(name, std::move(g));
  }
  doc.set("gauges", std::move(gauges));
  Value histograms = Value::object();
  for (const auto& [name, hist] : registry.histograms()) {
    histograms.set(name, histogram_json(hist));
  }
  doc.set("histograms", std::move(histograms));
  Value phases = Value::object();
  for (std::size_t k = 0; k < obs::kPhaseCount; ++k) {
    const auto phase = static_cast<obs::Phase>(k);
    const obs::PhaseStats& s = registry.phase(phase);
    if (s.calls == 0 && s.allocs == 0) {
      continue;
    }
    Value row = Value::object();
    row.set("calls", integer(s.calls));
    row.set("work", integer(s.work));
    row.set("total_ns", integer(s.total_ns));
    row.set("self_ns", integer(s.self_ns));
    row.set("allocs", integer(s.allocs));
    row.set("alloc_bytes", integer(s.alloc_bytes));
    row.set("ns", histogram_json(s.ns));
    phases.set(obs::phase_name(phase), std::move(row));
  }
  doc.set("phases", std::move(phases));
  Value notes = Value::object();
  for (const auto& [name, note] : registry.notes()) {
    notes.set(name, Value::string(note));
  }
  doc.set("notes", std::move(notes));
  out << doc.serialize(2);
}

void write_metrics_csv(std::ostream& out, const obs::Registry& registry,
                       const std::string& status) {
  out << "kind,name,field,value\n";
  out << "run,status,," << status << "\n";
  for (const auto& [name, counter] : registry.counters()) {
    out << "counter," << name << ",value," << counter.value() << "\n";
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    out << "gauge," << name << ",value," << gauge.value() << "\n";
    out << "gauge," << name << ",max," << gauge.max() << "\n";
  }
  for (const auto& [name, hist] : registry.histograms()) {
    write_histogram_csv(out, "histogram", name, hist);
  }
  for (std::size_t k = 0; k < obs::kPhaseCount; ++k) {
    const auto phase = static_cast<obs::Phase>(k);
    const obs::PhaseStats& s = registry.phase(phase);
    if (s.calls == 0 && s.allocs == 0) {
      continue;
    }
    const std::string name = obs::phase_name(phase);
    out << "phase," << name << ",calls," << s.calls << "\n";
    out << "phase," << name << ",work," << s.work << "\n";
    out << "phase," << name << ",total_ns," << s.total_ns << "\n";
    out << "phase," << name << ",self_ns," << s.self_ns << "\n";
    out << "phase," << name << ",allocs," << s.allocs << "\n";
    out << "phase," << name << ",alloc_bytes," << s.alloc_bytes << "\n";
    write_histogram_csv(out, "phase", name + ".ns", s.ns);
  }
  for (const auto& [name, note] : registry.notes()) {
    out << "note," << name << ",value," << csv_quote(note) << "\n";
  }
}

void write_metrics_json_file(const std::string& path,
                             const obs::Registry& registry,
                             const std::string& status) {
  auto out = open_or_throw(path);
  write_metrics_json(out, registry, status);
}

void write_metrics_csv_file(const std::string& path,
                            const obs::Registry& registry,
                            const std::string& status) {
  auto out = open_or_throw(path);
  write_metrics_csv(out, registry, status);
}

void write_metrics_file(const std::string& path,
                        const obs::Registry& registry,
                        const std::string& status) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    write_metrics_csv_file(path, registry, status);
  } else {
    write_metrics_json_file(path, registry, status);
  }
}

}  // namespace basrpt::report
