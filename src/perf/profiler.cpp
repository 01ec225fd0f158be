#include "perf/profiler.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

namespace basrpt::perf {

namespace {

std::atomic<bool> g_alloc_counting{false};
std::atomic<bool> g_span_recording{false};

// Process-wide allocation count (every thread, attributed or not).
// Relaxed atomic: a statistic, not synchronization.
std::atomic<std::uint64_t> g_alloc_count{0};

/// Innermost armed phase scope of this thread. Plain POD TLS — no
/// dynamic initialization, safe to touch from the interposer.
thread_local ScopedPhase* t_current_scope = nullptr;

json::Value number(std::uint64_t v) {
  return json::Value::number(static_cast<double>(v));
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool alloc_counting() {
  return g_alloc_counting.load(std::memory_order_relaxed);
}

void set_alloc_counting(bool on) {
  g_alloc_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_total() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void note_alloc(std::size_t bytes) {
  if (!g_alloc_counting.load(std::memory_order_relaxed)) {
    return;
  }
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // The scope's registry is this thread's own (its bound shard, or
  // global() on the thread that owns it), so a plain add is race-free.
  if (ScopedPhase* scope = t_current_scope) {
    obs::PhaseStats& row = scope->registry_->phase(scope->phase_);
    ++row.allocs;
    row.alloc_bytes += bytes;
  }
}

void set_span_recording(bool on) {
  g_span_recording.store(on, std::memory_order_relaxed);
}

// ----------------------------------------------------------- ScopedPhase

void ScopedPhase::arm() {
  registry_ = &obs::Registry::active();
  parent_ = t_current_scope;
  t_current_scope = this;
  start_ns_ = now_ns();
}

void ScopedPhase::record() {
  const std::uint64_t elapsed = now_ns() - start_ns_;
  t_current_scope = parent_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += elapsed;
  }
  obs::PhaseStats& row = registry_->phase(phase_);
  ++row.calls;
  row.work += work_;
  row.total_ns += elapsed;
  row.self_ns += elapsed >= child_ns_ ? elapsed - child_ns_ : 0;
  row.ns.add(elapsed);
  if (g_span_recording.load(std::memory_order_relaxed)) {
    registry_->add_span({phase_, start_ns_, elapsed});
  }
}

// -------------------------------------------------------------- reports

json::Value profile_json(const obs::Registry& registry,
                         std::uint64_t window_ns,
                         std::uint64_t unattributed_allocs) {
  json::Value doc = json::Value::object();
  doc.set("schema", json::Value::string("basrpt-profile-v1"));
  doc.set("window_ns", number(window_ns));
  doc.set("coverage_frac",
          json::Value::number(
              window_ns > 0 ? static_cast<double>(registry.phase_self_ns()) /
                                  static_cast<double>(window_ns)
                            : 0.0));
  json::Value phases = json::Value::object();
  for (std::size_t k = 0; k < obs::kPhaseCount; ++k) {
    const auto phase = static_cast<obs::Phase>(k);
    const obs::PhaseStats& s = registry.phase(phase);
    if (s.calls == 0 && s.allocs == 0) {
      continue;
    }
    json::Value p = json::Value::object();
    p.set("calls", number(s.calls));
    p.set("work", number(s.work));
    p.set("total_ns", number(s.total_ns));
    p.set("self_ns", number(s.self_ns));
    if (s.ns.count() > 0) {
      p.set("ns_p50", json::Value::number(s.ns.quantile(0.5)));
      p.set("ns_p99", json::Value::number(s.ns.quantile(0.99)));
      p.set("ns_p999", json::Value::number(s.ns.quantile(0.999)));
    }
    p.set("allocs", number(s.allocs));
    p.set("alloc_bytes", number(s.alloc_bytes));
    phases.set(obs::phase_name(phase), std::move(p));
  }
  doc.set("phases", std::move(phases));
  json::Value unattr = json::Value::object();
  unattr.set("allocs", number(unattributed_allocs));
  doc.set("alloc_unattributed", std::move(unattr));
  doc.set("spans_recorded", number(registry.spans().size()));
  doc.set("spans_dropped", number(registry.spans_dropped()));
  return doc;
}

void export_spans(const obs::Registry& registry, std::uint64_t origin_ns,
                  obs::FlowTracer& tracer) {
  for (const obs::Registry::Span& span : registry.spans()) {
    const std::uint64_t rel =
        span.start_ns >= origin_ns ? span.start_ns - origin_ns : 0;
    tracer.add_phase_span(obs::phase_name(span.phase),
                          static_cast<double>(rel) * 1e-3,
                          static_cast<double>(span.dur_ns) * 1e-3);
  }
}

}  // namespace basrpt::perf

// --------------------------------------------------- operator new/delete
//
// Global allocation interposer. Linked only into binaries that reference
// this translation unit (any perf:: symbol): with static archives the
// linker pulls this object solely to resolve those references, so
// binaries that never touch the perf subsystem keep the stock allocator.
// Each hook is malloc/free plus one relaxed load when counting is off.
// Sanitizer builds still intercept the underlying malloc/free, so ASan /
// TSan coverage is preserved.

namespace {

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  basrpt::perf::note_alloc(size);
  return p;
}

void* counted_alloc_nothrow(std::size_t size) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p != nullptr) {
    basrpt::perf::note_alloc(size);
  }
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  const auto alignment = static_cast<std::size_t>(align);
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  basrpt::perf::note_alloc(size);
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
