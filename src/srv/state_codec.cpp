#include "srv/state_codec.hpp"

#include <array>
#include <cstdint>
#include <sstream>
#include <string_view>

#include "ckpt/stats_codec.hpp"
#include "common/fields.hpp"
#include "common/serial.hpp"

namespace basrpt::srv {

namespace {

constexpr const char* kServerSection = "server";
constexpr const char* kLifecycleSection = "lifecycle";
constexpr const char* kFlowsSection = "flows";
constexpr const char* kSchedulerSection = "scheduler";
constexpr const char* kFctSection = "fct";
constexpr const char* kFaultSection = "fault";
constexpr const char* kSloSection = "slo";
constexpr const char* kHealthSection = "health";

/// The cells of the next `<tag> ...` payload row of `what`, split at
/// blanks into exactly N cells (tag included). With `free_text_last`,
/// the last cell may be missing (then empty) or keep further blanks.
template <std::size_t N>
std::array<std::string_view, N> row(ckpt::SectionReader& in, const char* what,
                                    std::string_view tag,
                                    bool free_text_last = false) {
  std::array<std::string_view, N> cells;
  const std::size_t n = fields::split(in.next(what), ' ', cells);
  const bool sized = free_text_last ? n + 1 >= N : n == N;
  if (!sized || cells[0] != tag) {
    in.fail(std::string("malformed ") + what);
  }
  return cells;
}

std::int64_t int_cell(ckpt::SectionReader& in, std::string_view cell,
                      const char* what) {
  std::int64_t value = 0;
  if (!fields::parse_i64(cell, &value)) {
    in.fail(std::string("malformed ") + what);
  }
  return value;
}

std::int32_t int32_cell(ckpt::SectionReader& in, std::string_view cell,
                        const char* what) {
  const std::int64_t value = int_cell(in, cell, what);
  if (value < INT32_MIN || value > INT32_MAX) {
    in.fail(std::string("malformed ") + what);
  }
  return static_cast<std::int32_t>(value);
}

HealthState health_state_of(std::uint64_t raw, ckpt::SectionReader& in) {
  if (raw > static_cast<std::uint64_t>(HealthState::kDraining)) {
    in.fail("unknown health state " + std::to_string(raw));
  }
  return static_cast<HealthState>(raw);
}

void write_tenant_counts(ckpt::SnapshotWriter::Section& out, const char* key,
                         const std::map<std::int32_t, std::int64_t>& counts) {
  out.u64(key, counts.size());
  for (const auto& [tenant, count] : counts) {
    std::ostringstream line;
    line << "t " << tenant << " " << count;
    out.line(line.str());
  }
}

std::map<std::int32_t, std::int64_t> read_tenant_counts(
    ckpt::SectionReader& in, const char* key) {
  const std::size_t n = in.count(key, 1);
  std::map<std::int32_t, std::int64_t> counts;
  for (std::size_t i = 0; i < n; ++i) {
    const auto cells = row<3>(in, "tenant count row", "t");
    counts[int32_cell(in, cells[1], "tenant count row")] =
        int_cell(in, cells[2], "tenant count row");
  }
  return counts;
}

}  // namespace

std::string encode_server_ckpt(const ServerCkpt& state) {
  ckpt::SnapshotWriter writer;

  auto& server = writer.section(kServerSection);
  server.u64("feed_records_consumed", state.feed_records_consumed);
  server.u64("decisions_emitted", state.decisions_emitted);
  server.f64("now_sec", state.sim.now_sec);
  server.u64("scheduler_invocations", state.sim.scheduler_invocations);
  server.i64("delivered_bytes", state.sim.delivered_bytes);
  server.u64("fault_cursor", state.sim.fault_cursor);
  server.i64("candidates_masked_base", state.sim.candidates_masked_base);

  auto& lifecycle = writer.section(kLifecycleSection);
  lifecycle.i64("next_id", state.sim.lifecycle.next_id);
  lifecycle.i64("flows_arrived", state.sim.lifecycle.flows_arrived);
  lifecycle.i64("flows_completed", state.sim.lifecycle.flows_completed);
  lifecycle.i64("flows_requeued", state.sim.lifecycle.flows_requeued);
  lifecycle.i64("bytes_arrived", state.sim.lifecycle.bytes_arrived.count);
  lifecycle.u64("prev_selected", state.sim.lifecycle.prev_selected.size());
  for (const queueing::FlowId id : state.sim.lifecycle.prev_selected) {
    std::ostringstream line;
    line << "s " << id;
    lifecycle.line(line.str());
  }

  auto& flows = writer.section(kFlowsSection);
  flows.u64("count", state.sim.flows.size());
  for (const queueing::Flow& f : state.sim.flows) {
    std::ostringstream line;
    line << "f " << f.id << " " << f.src << " " << f.dst << " "
         << f.size.count << " " << f.remaining.count << " "
         << f64_to_hex(f.arrival.seconds) << " " << fields::class_tag(f.cls);
    flows.line(line.str());
  }

  auto& scheduler = writer.section(kSchedulerSection);
  scheduler.u64("words", state.sim.scheduler_state.size());
  for (const std::uint64_t word : state.sim.scheduler_state) {
    std::ostringstream line;
    line << "w " << u64_to_hex(word);
    scheduler.line(line.str());
  }

  auto& fct = writer.section(kFctSection);
  ckpt::write_fct(fct, state.sim.fct);

  auto& fault = writer.section(kFaultSection);
  ckpt::write_fault_stats(fault, state.sim.fault_stats);

  auto& slo = writer.section(kSloSection);
  slo.i64("admitted", state.slo.admitted);
  slo.i64("shed", state.slo.shed);
  slo.i64("queue_depth_peak", state.slo.queue_depth_peak);
  slo.f64("last_shed_sec", state.slo.last_shed_sec);
  write_tenant_counts(slo, "admitted_by_tenant", state.slo.admitted_by_tenant);
  write_tenant_counts(slo, "shed_by_tenant", state.slo.shed_by_tenant);

  auto& health = writer.section(kHealthSection);
  health.u64("state", static_cast<std::uint64_t>(state.health.state));
  health.f64("probe_delay_sec", state.health.probe_delay_sec);
  health.f64("shed_entered_sec", state.health.shed_entered_sec);
  health.f64("shed_exited_sec", state.health.shed_exited_sec);
  health.f64("below_exit_since_sec", state.health.below_exit_since_sec);
  health.f64("degraded_clear_since_sec",
             state.health.degraded_clear_since_sec);
  health.u64("below_exit_valid", state.health.below_exit_valid ? 1 : 0);
  health.u64("degraded_clear_valid",
             state.health.degraded_clear_valid ? 1 : 0);
  health.i64("shed_entries", state.health.shed_entries);
  health.u64("transitions", state.health.transitions.size());
  for (const HealthTransition& t : state.health.transitions) {
    std::ostringstream line;
    // Reason text goes last so it may contain spaces.
    line << "x " << f64_to_hex(t.time_sec) << " "
         << static_cast<int>(t.from) << " " << static_cast<int>(t.to) << " "
         << t.reason;
    health.line(line.str());
  }

  return writer.str();
}

ServerCkpt decode_server_ckpt(const ckpt::Snapshot& snapshot) {
  ServerCkpt state;

  {
    ckpt::SectionReader in = snapshot.reader(kServerSection);
    state.feed_records_consumed = in.u64("feed_records_consumed");
    state.decisions_emitted = in.u64("decisions_emitted");
    state.sim.now_sec = in.f64("now_sec");
    state.sim.scheduler_invocations = in.u64("scheduler_invocations");
    state.sim.delivered_bytes = in.i64("delivered_bytes");
    state.sim.fault_cursor = in.u64("fault_cursor");
    state.sim.candidates_masked_base = in.i64("candidates_masked_base");
    in.expect_done();
  }

  {
    ckpt::SectionReader in = snapshot.reader(kLifecycleSection);
    state.sim.lifecycle.next_id = in.i64("next_id");
    state.sim.lifecycle.flows_arrived = in.i64("flows_arrived");
    state.sim.lifecycle.flows_completed = in.i64("flows_completed");
    state.sim.lifecycle.flows_requeued = in.i64("flows_requeued");
    state.sim.lifecycle.bytes_arrived = Bytes{in.i64("bytes_arrived")};
    const std::size_t selected = in.count("prev_selected", 1);
    state.sim.lifecycle.prev_selected.reserve(selected);
    for (std::size_t i = 0; i < selected; ++i) {
      const auto cells = row<2>(in, "prev_selected row", "s");
      state.sim.lifecycle.prev_selected.push_back(
          int_cell(in, cells[1], "prev_selected row"));
    }
    in.expect_done();
  }

  {
    ckpt::SectionReader in = snapshot.reader(kFlowsSection);
    const std::size_t count = in.count("count", 1);
    state.sim.flows.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto cells = row<8>(in, "flow row", "f");
      queueing::Flow f;
      f.id = int_cell(in, cells[1], "flow row");
      f.src = int32_cell(in, cells[2], "flow row");
      f.dst = int32_cell(in, cells[3], "flow row");
      f.size.count = int_cell(in, cells[4], "flow row");
      f.remaining.count = int_cell(in, cells[5], "flow row");
      f.arrival = SimTime{f64_from_hex(cells[6])};
      if (!fields::parse_class(cells[7], &f.cls)) {
        in.fail("unknown flow class '" + std::string(cells[7]) + "'");
      }
      if (f.size.count <= 0 || f.remaining.count <= 0 ||
          f.remaining.count > f.size.count) {
        in.fail("implausible flow sizes in flow row");
      }
      state.sim.flows.push_back(f);
    }
    in.expect_done();
  }

  {
    ckpt::SectionReader in = snapshot.reader(kSchedulerSection);
    const std::size_t words = in.count("words", 1);
    state.sim.scheduler_state.reserve(words);
    for (std::size_t i = 0; i < words; ++i) {
      const auto cells = row<2>(in, "scheduler word row", "w");
      state.sim.scheduler_state.push_back(u64_from_hex(cells[1]));
    }
    in.expect_done();
  }

  {
    ckpt::SectionReader in = snapshot.reader(kFctSection);
    state.sim.fct = ckpt::read_fct(in);
    in.expect_done();
  }

  {
    ckpt::SectionReader in = snapshot.reader(kFaultSection);
    state.sim.fault_stats = ckpt::read_fault_stats(in);
    in.expect_done();
  }

  {
    ckpt::SectionReader in = snapshot.reader(kSloSection);
    state.slo.admitted = in.i64("admitted");
    state.slo.shed = in.i64("shed");
    state.slo.queue_depth_peak = in.i64("queue_depth_peak");
    state.slo.last_shed_sec = in.f64("last_shed_sec");
    state.slo.admitted_by_tenant =
        read_tenant_counts(in, "admitted_by_tenant");
    state.slo.shed_by_tenant = read_tenant_counts(in, "shed_by_tenant");
    in.expect_done();
  }

  {
    ckpt::SectionReader in = snapshot.reader(kHealthSection);
    state.health.state = health_state_of(in.u64("state"), in);
    state.health.probe_delay_sec = in.f64("probe_delay_sec");
    state.health.shed_entered_sec = in.f64("shed_entered_sec");
    state.health.shed_exited_sec = in.f64("shed_exited_sec");
    state.health.below_exit_since_sec = in.f64("below_exit_since_sec");
    state.health.degraded_clear_since_sec =
        in.f64("degraded_clear_since_sec");
    state.health.below_exit_valid = in.u64("below_exit_valid") != 0;
    state.health.degraded_clear_valid = in.u64("degraded_clear_valid") != 0;
    state.health.shed_entries = in.i64("shed_entries");
    const std::size_t transitions = in.count("transitions", 1);
    state.health.transitions.reserve(transitions);
    for (std::size_t i = 0; i < transitions; ++i) {
      const auto cells = row<5>(in, "health transition row", "x",
                                /*free_text_last=*/true);
      HealthTransition t;
      t.time_sec = f64_from_hex(cells[1]);
      t.from = health_state_of(
          static_cast<std::uint64_t>(
              int_cell(in, cells[2], "health transition row")),
          in);
      t.to = health_state_of(
          static_cast<std::uint64_t>(
              int_cell(in, cells[3], "health transition row")),
          in);
      t.reason = std::string(cells[4]);
      state.health.transitions.push_back(t);
    }
    in.expect_done();
  }

  return state;
}

ServerCkpt read_server_ckpt_file(const std::string& path) {
  return decode_server_ckpt(ckpt::Snapshot::from_file(path));
}

}  // namespace basrpt::srv
