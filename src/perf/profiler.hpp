// Active performance observability: scoped phase timers with
// self/child-time attribution, plus a global operator new/delete
// allocation counter attributed to the phase that allocated.
//
// Phase timings are run telemetry like any other metric: ScopedPhase
// records calls, inclusive/self ns, and a latency histogram into the
// fixed phase table of obs::Registry::active(), so they ride the same
// per-cell shards and commit-order merges as counters and histograms —
// `--profile --jobs N` merges deterministically (counts exact, ns summed
// over cells). Everything here is pay-for-use twice over:
//
//  * Phase scopes are armed by obs::enabled() and cost one predictable
//    branch when it is off — no clock read, no TLS write.
//  * The operator new/delete interposer lives in profiler.cpp, so a
//    binary that never references the profiler never links it and keeps
//    the toolchain allocator untouched. Binaries that do link it pay one
//    relaxed load per allocation while counting is off.
//
// `--profile` adds what the registry alone does not: allocation
// attribution (relaxed atomics for the process total, the active
// phase's row for the attributed share), per-scope timeline spans for
// the Chrome trace, and the stderr / basrpt-profile-v1 breakdown below.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/json.hpp"

namespace basrpt::perf {

/// Steady-clock nanoseconds; the time base of phase timings and spans.
std::uint64_t now_ns();

/// Allocation counting (no clocks): --profile turns it on, and the
/// measurement harness uses it alone to report allocs/op.
bool alloc_counting();
void set_alloc_counting(bool on);

/// Total allocations observed so far on every thread, for before/after
/// deltas. Monotonic while counting is on.
std::uint64_t alloc_total();

/// Called by the interposer on every allocation while counting is on;
/// exposed for tests that want to simulate attribution without
/// depending on allocator behavior.
void note_alloc(std::size_t bytes);

/// Per-scope span recording for the Chrome trace (obs::Registry::Span).
/// Off by default — per-event spans are bulky.
void set_span_recording(bool on);

/// RAII phase scope. Disarmed (one branch, nothing else) unless
/// obs::enabled(). While armed it maintains the thread-local scope chain
/// used for self time and allocation attribution, and records into the
/// registry that was active when it opened.
class ScopedPhase {
 public:
  explicit ScopedPhase(obs::Phase phase) : phase_(phase) {
    if (obs::enabled()) {
      arm();
    }
  }
  ~ScopedPhase() {
    if (registry_ != nullptr) {
      record();
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  /// Adds to the phase's exact work count (items the call touched).
  void add_work(std::uint64_t items) { work_ += items; }

 private:
  friend void note_alloc(std::size_t);

  void arm();
  void record();

  obs::Phase phase_;
  obs::Registry* registry_ = nullptr;  // non-null iff armed
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  std::uint64_t work_ = 0;
  ScopedPhase* parent_ = nullptr;
};

/// The basrpt-profile-v1 breakdown of `registry`'s phase table over a
/// wall-clock window of `window_ns`. `unattributed_allocs` is the
/// window's allocations no phase claimed.
json::Value profile_json(const obs::Registry& registry,
                         std::uint64_t window_ns,
                         std::uint64_t unattributed_allocs);

/// Appends `registry`'s recorded spans to `tracer` as phase spans (µs
/// relative to `origin_ns`), which FlowTracer::write_chrome_json renders
/// on a dedicated profiler track beside the flow lifecycles.
void export_spans(const obs::Registry& registry, std::uint64_t origin_ns,
                  obs::FlowTracer& tracer);

}  // namespace basrpt::perf
