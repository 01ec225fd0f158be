// Exporters for the obs metrics registry.
//
// JSON for machine consumption (one document: counters, gauges,
// histograms with their log-scale buckets and derived quantiles, the
// phase table, notes — written through perf::json::Value, so numbers
// round-trip exactly) and a flat CSV (kind,name,field,value) for
// spreadsheets / quick grep.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace basrpt::report {

/// `status` marks how the run ended: "ok" for a clean finish,
/// "interrupted" when partial metrics were flushed from a signal, stall,
/// or parse-failure path (see docs/CHECKPOINT.md). It lands as a
/// top-level `"status"` field in JSON and a `run,status,,<v>` row in CSV
/// so downstream tooling can refuse to treat partial numbers as final.
void write_metrics_json(std::ostream& out, const obs::Registry& registry,
                        const std::string& status = "ok");
void write_metrics_json_file(const std::string& path,
                             const obs::Registry& registry,
                             const std::string& status = "ok");

void write_metrics_csv(std::ostream& out, const obs::Registry& registry,
                       const std::string& status = "ok");
void write_metrics_csv_file(const std::string& path,
                            const obs::Registry& registry,
                            const std::string& status = "ok");

/// Dispatches on the path suffix: ".csv" writes CSV, anything else JSON.
void write_metrics_file(const std::string& path,
                        const obs::Registry& registry,
                        const std::string& status = "ok");

}  // namespace basrpt::report
