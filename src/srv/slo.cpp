#include "srv/slo.hpp"

#include <fstream>
#include <ostream>
#include <string>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "perf/json.hpp"

namespace basrpt::srv {

namespace {

using perf::json::Value;

double ns_to_ms(double ns) { return ns / 1e6; }

Value integer(std::int64_t v) { return Value::number(static_cast<double>(v)); }

Value tenant_map(const std::map<std::int32_t, std::int64_t>& by_tenant) {
  Value doc = Value::object();
  for (const auto& [tenant, count] : by_tenant) {
    doc.set(std::to_string(tenant), integer(count));
  }
  return doc;
}

}  // namespace

void SloTracker::export_metrics(obs::Registry& registry) const {
  registry.counter("srv.decisions").add(
      static_cast<std::int64_t>(decision_ns_.count()));
  registry.counter("srv.admitted").add(admitted_);
  registry.counter("srv.shed").add(shed_);
  registry.counter("srv.deadline_misses").add(deadline_misses_);
  registry.gauge("srv.queue_depth").set(
      static_cast<double>(queue_depth_last_));
  registry.gauge("srv.queue_depth_peak").set(
      static_cast<double>(queue_depth_peak_));
  registry.histogram("srv.decision_ns").merge_from(decision_ns_);
}

SloTracker::Snapshot SloTracker::snapshot() const {
  Snapshot snap;
  snap.admitted = admitted_;
  snap.shed = shed_;
  snap.queue_depth_peak = queue_depth_peak_;
  snap.last_shed_sec = last_shed_sec_;
  snap.admitted_by_tenant = admitted_by_tenant_;
  snap.shed_by_tenant = shed_by_tenant_;
  return snap;
}

void SloTracker::restore(const Snapshot& snap) {
  admitted_ = snap.admitted;
  shed_ = snap.shed;
  queue_depth_peak_ = snap.queue_depth_peak;
  last_shed_sec_ = snap.last_shed_sec;
  admitted_by_tenant_ = snap.admitted_by_tenant;
  shed_by_tenant_ = snap.shed_by_tenant;
}

void write_slo_json(std::ostream& out, const SloTracker& slo,
                    const HealthMonitor& health, const SloRunTotals& totals) {
  const obs::LatencyHistogram& d = slo.decision_ns();
  const double dps =
      totals.wall_seconds > 0.0
          ? static_cast<double>(d.count()) / totals.wall_seconds
          : 0.0;
  const std::int64_t offered = slo.admitted() + slo.shed();
  const double shed_rate =
      offered > 0 ? static_cast<double>(slo.shed()) /
                        static_cast<double>(offered)
                  : 0.0;

  Value doc = Value::object();
  doc.set("report", Value::string("basrpt-slo-v1"));
  doc.set("status", Value::string(totals.status));
  doc.set("resumed", Value::boolean(totals.resumed));
  doc.set("feed_seconds", Value::number(totals.feed_seconds));
  doc.set("wall_seconds", Value::number(totals.wall_seconds));
  Value decisions = Value::object();
  decisions.set("count", integer(static_cast<std::int64_t>(d.count())));
  decisions.set("per_sec", Value::number(dps));
  decisions.set("mean_ms", Value::number(ns_to_ms(d.mean())));
  decisions.set("p50_ms", Value::number(ns_to_ms(d.quantile(0.5))));
  decisions.set("p99_ms", Value::number(ns_to_ms(d.quantile(0.99))));
  decisions.set("p999_ms", Value::number(ns_to_ms(d.quantile(0.999))));
  decisions.set("max_ms",
                Value::number(ns_to_ms(static_cast<double>(d.max()))));
  decisions.set("deadline_misses", integer(slo.deadline_misses()));
  doc.set("decisions", std::move(decisions));
  Value admission = Value::object();
  admission.set("offered", integer(offered));
  admission.set("admitted", integer(slo.admitted()));
  admission.set("shed", integer(slo.shed()));
  admission.set("shed_rate", Value::number(shed_rate));
  admission.set("last_shed_sec", Value::number(slo.last_shed_sec()));
  admission.set("admitted_by_tenant", tenant_map(slo.admitted_by_tenant()));
  admission.set("shed_by_tenant", tenant_map(slo.shed_by_tenant()));
  doc.set("admission", std::move(admission));
  Value queue = Value::object();
  queue.set("depth_peak", integer(slo.queue_depth_peak()));
  doc.set("queue", std::move(queue));
  Value flows = Value::object();
  flows.set("records_consumed", integer(totals.records_consumed));
  flows.set("arrived", integer(totals.flows_arrived));
  flows.set("completed", integer(totals.flows_completed));
  flows.set("active_at_end", integer(totals.active_flows_at_end));
  doc.set("flows", std::move(flows));
  Value bytes = Value::object();
  bytes.set("delivered", integer(totals.delivered_bytes));
  bytes.set("backlog_at_end", integer(totals.backlog_bytes_at_end));
  doc.set("bytes", std::move(bytes));
  doc.set("scheduler_invocations", integer(totals.scheduler_invocations));
  Value h = Value::object();
  h.set("final_state", Value::string(health_state_name(health.state())));
  h.set("shed_entries", integer(health.shed_entries()));
  h.set("probe_delay_sec", Value::number(health.probe_delay_sec()));
  Value transitions = Value::array();
  for (const HealthTransition& t : health.transitions()) {
    Value entry = Value::object();
    entry.set("time_sec", Value::number(t.time_sec));
    entry.set("from", Value::string(health_state_name(t.from)));
    entry.set("to", Value::string(health_state_name(t.to)));
    entry.set("reason", Value::string(t.reason));
    transitions.push(std::move(entry));
  }
  h.set("transitions", std::move(transitions));
  doc.set("health", std::move(h));
  out << doc.serialize(2);
}

void write_slo_json_file(const std::string& path, const SloTracker& slo,
                         const HealthMonitor& health,
                         const SloRunTotals& totals) {
  std::ofstream out(path);
  BASRPT_REQUIRE(out.good(), "cannot open SLO report file: " + path);
  write_slo_json(out, slo, health, totals);
  BASRPT_REQUIRE(out.good(), "error while writing SLO report: " + path);
}

}  // namespace basrpt::srv
