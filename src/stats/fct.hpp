// Flow-completion-time aggregation and throughput accounting.
//
// Mirrors the paper's metrics (Sec. V-A): mean and 99th-percentile FCT
// separately for queries and background flows, plus global throughput
// "calculated globally in bytes, counting the total data volume leaving
// the fabric during the whole simulation period".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"

namespace basrpt::stats {

/// Traffic class of a flow, following the paper's taxonomy.
enum class FlowClass : std::uint8_t {
  kQuery = 0,       // fixed-size query/response traffic, fabric-wide
  kBackground = 1,  // heavy-tailed large transfers, rack-local
};

std::string to_string(FlowClass c);

/// Per-class FCT summary.
struct FctSummary {
  std::int64_t completed = 0;
  double mean_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
  // Slowdown = FCT / ideal FCT (the flow alone at line rate); 0 when the
  // recorder was not given ideals. The normalized-FCT metric of the
  // pFabric line of work.
  double mean_slowdown = 0.0;
  double p99_slowdown = 0.0;
};

/// Collects completions and renders per-class summaries.
class FctAggregator {
 public:
  void record(FlowClass cls, SimTime fct, Bytes size);

  /// Like record(), but also tracks slowdown = fct / ideal.
  void record_with_ideal(FlowClass cls, SimTime fct, Bytes size,
                         SimTime ideal);

  FctSummary summary(FlowClass cls) const;
  std::int64_t completed(FlowClass cls) const;
  std::int64_t completed_total() const;

  /// Total bytes of *completed* flows.
  Bytes bytes_completed() const { return bytes_completed_; }

  /// Checkpointable image: every per-class accumulator plus the byte
  /// counter. Restoring reproduces summary() output bit-identically.
  struct ClassState {
    FlowClass cls = FlowClass::kQuery;
    StreamingMoments::State moments;
    std::vector<double> fct_samples;
    StreamingMoments::State slowdown_moments;
    std::vector<double> slowdown_samples;
  };
  struct State {
    std::vector<ClassState> classes;  // in FlowClass order
    Bytes bytes_completed{};
  };
  State state() const;
  void restore(const State& s);

 private:
  struct PerClass {
    StreamingMoments moments;
    ExactPercentiles percentiles;
    StreamingMoments slowdown_moments;
    ExactPercentiles slowdown_percentiles;
  };
  std::map<FlowClass, PerClass> per_class_;
  Bytes bytes_completed_{};
};

}  // namespace basrpt::stats
