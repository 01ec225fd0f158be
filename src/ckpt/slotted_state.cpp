#include "ckpt/slotted_state.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/stats_codec.hpp"
#include "common/fields.hpp"
#include "common/serial.hpp"

namespace basrpt::ckpt {

namespace {

using switchsim::SlottedArrival;
using switchsim::SlottedSimState;

void write_arrival(SnapshotWriter::Section& out, const char* key,
                   const SlottedArrival& a) {
  out.line(std::string(key) + ' ' + std::to_string(a.slot) + ' ' +
           std::to_string(a.src) + ' ' + std::to_string(a.dst) + ' ' +
           std::to_string(a.size) + ' ' +
           std::to_string(static_cast<unsigned>(a.cls)));
}

SlottedArrival read_arrival(SectionReader& in, const char* key) {
  const std::string v = in.text(key);
  std::array<std::string_view, 5> cells;
  std::int64_t slot = 0, src = 0, dst = 0, size = 0;
  std::uint64_t cls = 0;
  if (fields::split(v, ' ', cells) != cells.size() ||
      !fields::parse_i64(cells[0], &slot) ||
      !fields::parse_i64(cells[1], &src) ||
      !fields::parse_i64(cells[2], &dst) ||
      !fields::parse_i64(cells[3], &size) ||
      !fields::parse_u64(cells[4], &cls) || cls > 1) {
    in.fail(std::string(key) +
            " must be '<slot> <src> <dst> <size> <cls>', got '" + v + "'");
  }
  SlottedArrival a;
  a.slot = slot;
  a.src = static_cast<switchsim::PortId>(src);
  a.dst = static_cast<switchsim::PortId>(dst);
  a.size = size;
  a.cls = static_cast<stats::FlowClass>(cls);
  return a;
}

}  // namespace

void write_slotted_state(SnapshotWriter& out, const SlottedSimState& s) {
  auto& run = out.section("slotted.run");
  run.i64("slot", s.slot);
  run.u64("arrival_pulls", s.arrival_pulls);
  run.u64("has_pending", s.has_pending ? 1 : 0);
  if (s.has_pending) {
    write_arrival(run, "pending", s.pending);
  }
  run.i64("last_slot_seen", s.last_slot_seen);
  run.u64("scheduler_invocations", s.scheduler_invocations);
  run.i64("delivered_packets", s.delivered_packets);
  run.u64("scheduler_state", s.scheduler_state.size());
  for (const std::uint64_t word : s.scheduler_state) {
    run.u64("w", word);
  }

  auto& lc = out.section("slotted.lifecycle");
  lc.i64("next_id", s.lifecycle.next_id);
  lc.i64("flows_arrived", s.lifecycle.flows_arrived);
  lc.i64("flows_completed", s.lifecycle.flows_completed);
  lc.i64("flows_requeued", s.lifecycle.flows_requeued);
  lc.i64("bytes_arrived", s.lifecycle.bytes_arrived.count);
  lc.u64("prev_selected", s.lifecycle.prev_selected.size());
  for (const queueing::FlowId id : s.lifecycle.prev_selected) {
    lc.i64("id", id);
  }

  auto& fl = out.section("slotted.flows");
  fl.u64("flows", s.flows.size());
  for (const queueing::Flow& f : s.flows) {
    // id src dst size remaining arrival(slot-valued double) cls
    fl.line("f " + std::to_string(f.id) + ' ' + std::to_string(f.src) + ' ' +
            std::to_string(f.dst) + ' ' + std::to_string(f.size.count) + ' ' +
            std::to_string(f.remaining.count) + ' ' +
            f64_to_hex(f.arrival.seconds) + ' ' +
            std::to_string(static_cast<unsigned>(f.cls)));
  }

  write_fct(out.section("slotted.fct"), s.fct);
  write_backlog(out.section("slotted.backlog"), s.backlog);
  write_drift(out.section("slotted.drift"), s.drift);
  write_moments(out.section("slotted.penalty"), s.penalty);
  write_moments(out.section("slotted.backlog_packets"), s.backlog_packets);

  auto& ft = out.section("slotted.fault");
  ft.u64("cursor", s.fault_cursor);
  write_fault_stats(ft, s.fault_stats);
  ft.u64("credit", s.credit.size());
  for (const double c : s.credit) {
    ft.f64("c", c);
  }
  ft.u64("last_selected", s.last_selected.size());
  for (const queueing::FlowId id : s.last_selected) {
    ft.i64("id", id);
  }
  ft.i64("candidates_masked_base", s.candidates_masked_base);
}

switchsim::SlottedSimState read_slotted_state(const Snapshot& snap) {
  SlottedSimState s;

  SectionReader run = snap.reader("slotted.run");
  s.slot = run.i64("slot");
  s.arrival_pulls = run.u64("arrival_pulls");
  const std::uint64_t has_pending = run.u64("has_pending");
  if (has_pending > 1) {
    run.fail("has_pending must be 0 or 1");
  }
  s.has_pending = has_pending == 1;
  if (s.has_pending) {
    s.pending = read_arrival(run, "pending");
  }
  s.last_slot_seen = run.i64("last_slot_seen");
  s.scheduler_invocations = run.u64("scheduler_invocations");
  s.delivered_packets = run.i64("delivered_packets");
  const std::size_t n_words = run.count("scheduler_state", 1);
  s.scheduler_state.reserve(n_words);
  for (std::size_t i = 0; i < n_words; ++i) {
    s.scheduler_state.push_back(run.u64("w"));
  }
  run.expect_done();

  SectionReader lc = snap.reader("slotted.lifecycle");
  s.lifecycle.next_id = lc.i64("next_id");
  s.lifecycle.flows_arrived = lc.i64("flows_arrived");
  s.lifecycle.flows_completed = lc.i64("flows_completed");
  s.lifecycle.flows_requeued = lc.i64("flows_requeued");
  s.lifecycle.bytes_arrived = Bytes{lc.i64("bytes_arrived")};
  const std::size_t n_prev = lc.count("prev_selected", 1);
  s.lifecycle.prev_selected.reserve(n_prev);
  for (std::size_t i = 0; i < n_prev; ++i) {
    s.lifecycle.prev_selected.push_back(lc.i64("id"));
  }
  lc.expect_done();

  SectionReader fl = snap.reader("slotted.flows");
  const std::size_t n_flows = fl.count("flows", 1);
  s.flows.reserve(n_flows);
  for (std::size_t i = 0; i < n_flows; ++i) {
    const std::string v = fl.text("f");
    std::array<std::string_view, 7> cells;
    std::int64_t id = 0, src = 0, dst = 0, size = 0, remaining = 0;
    std::uint64_t cls = 0;
    if (fields::split(v, ' ', cells) != cells.size() ||
        !fields::parse_i64(cells[0], &id) ||
        !fields::parse_i64(cells[1], &src) ||
        !fields::parse_i64(cells[2], &dst) ||
        !fields::parse_i64(cells[3], &size) ||
        !fields::parse_i64(cells[4], &remaining) ||
        !fields::parse_u64(cells[6], &cls) || cls > 1) {
      fl.fail("malformed flow record '" + v + "'");
    }
    queueing::Flow f;
    f.id = id;
    f.src = static_cast<queueing::PortId>(src);
    f.dst = static_cast<queueing::PortId>(dst);
    f.size = Bytes{size};
    f.remaining = Bytes{remaining};
    try {
      f.arrival = SimTime{f64_from_hex(cells[5])};
    } catch (const std::exception&) {
      fl.fail("flow arrival must be a hex-encoded double: '" + v + "'");
    }
    f.cls = static_cast<stats::FlowClass>(cls);
    s.flows.push_back(f);
  }
  fl.expect_done();

  SectionReader fct = snap.reader("slotted.fct");
  s.fct = read_fct(fct);
  fct.expect_done();

  SectionReader bl = snap.reader("slotted.backlog");
  s.backlog = read_backlog(bl);
  bl.expect_done();

  SectionReader dr = snap.reader("slotted.drift");
  s.drift = read_drift(dr);
  dr.expect_done();

  SectionReader pen = snap.reader("slotted.penalty");
  s.penalty = read_moments(pen);
  pen.expect_done();

  SectionReader bp = snap.reader("slotted.backlog_packets");
  s.backlog_packets = read_moments(bp);
  bp.expect_done();

  SectionReader ft = snap.reader("slotted.fault");
  s.fault_cursor = ft.u64("cursor");
  s.fault_stats = read_fault_stats(ft);
  const std::size_t n_credit = ft.count("credit", 1);
  s.credit.reserve(n_credit);
  for (std::size_t i = 0; i < n_credit; ++i) {
    s.credit.push_back(ft.f64("c"));
  }
  const std::size_t n_sel = ft.count("last_selected", 1);
  s.last_selected.reserve(n_sel);
  for (std::size_t i = 0; i < n_sel; ++i) {
    s.last_selected.push_back(ft.i64("id"));
  }
  s.candidates_masked_base = ft.i64("candidates_masked_base");
  ft.expect_done();

  return s;
}

void write_slotted_result(SnapshotWriter& out, const std::string& prefix,
                          const switchsim::SlottedResult& r) {
  auto& sum = out.section(prefix + ".summary");
  sum.i64("delivered_packets", r.delivered_packets);
  sum.i64("left_packets", r.left_packets);
  sum.i64("left_flows", r.left_flows);
  sum.i64("horizon", r.horizon);
  sum.u64("scheduler_invocations", r.scheduler_invocations);
  write_fault_stats(sum, r.fault_stats);
  write_fct(out.section(prefix + ".fct"), r.fct.state());
  write_backlog(out.section(prefix + ".backlog"), r.backlog.state());
  write_drift(out.section(prefix + ".drift"), r.drift.state());
  write_moments(out.section(prefix + ".penalty"), r.penalty.state());
  write_moments(out.section(prefix + ".backlog_packets"),
                r.backlog_packets.state());
}

switchsim::SlottedResult read_slotted_result(const Snapshot& snap,
                                             const std::string& prefix,
                                             switchsim::PortId ws,
                                             switchsim::PortId wd) {
  switchsim::SlottedResult r(ws, wd);
  SectionReader sum = snap.reader(prefix + ".summary");
  r.delivered_packets = sum.i64("delivered_packets");
  r.left_packets = sum.i64("left_packets");
  r.left_flows = sum.i64("left_flows");
  r.horizon = sum.i64("horizon");
  r.scheduler_invocations = sum.u64("scheduler_invocations");
  r.fault_stats = read_fault_stats(sum);
  sum.expect_done();

  SectionReader fct = snap.reader(prefix + ".fct");
  r.fct.restore(read_fct(fct));
  fct.expect_done();
  SectionReader bl = snap.reader(prefix + ".backlog");
  r.backlog.restore(read_backlog(bl));
  bl.expect_done();
  SectionReader dr = snap.reader(prefix + ".drift");
  r.drift.restore(read_drift(dr));
  dr.expect_done();
  SectionReader pen = snap.reader(prefix + ".penalty");
  r.penalty.restore(read_moments(pen));
  pen.expect_done();
  SectionReader bp = snap.reader(prefix + ".backlog_packets");
  r.backlog_packets.restore(read_moments(bp));
  bp.expect_done();
  return r;
}

}  // namespace basrpt::ckpt
