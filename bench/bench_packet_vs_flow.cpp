// Ablation: packet-granularity (decentralized, pFabric-style) vs
// flow-level (centralized matching) realizations of the same policies,
// on the *identical* recorded arrival trace.
//
// Two gaps are being measured at once:
//  * fluid-model fidelity — whether the flow-level simulator the paper
//    (and this reproduction) uses hides packet-scale artifacts;
//  * the decentralization gap — per-packet local priorities vs the
//    idealized centralized matching scheduler.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "run_session.hpp"
#include "flowsim/flow_sim.hpp"
#include "pktsim/packet_sim.hpp"
#include "workload/generators.hpp"

namespace {

/// One comparison row: a policy realized in one of the two models.
struct PvfCell {
  bool packet = false;
  basrpt::sched::SchedulerSpec spec{};  // flow cells
  basrpt::pktsim::PacketPolicy policy =
      basrpt::pktsim::PacketPolicy::kSrpt;  // packet cells
  double pkt_v = 0.0;
  std::string label;  // "policy" column + progress line
};

/// Packet-side realization of a flow-level policy, when one exists.
std::optional<basrpt::pktsim::PacketPolicy> packet_policy(
    const basrpt::sched::SchedulerSpec& spec) {
  using basrpt::pktsim::PacketPolicy;
  if (spec.size_error > 1.0) {
    return std::nullopt;  // the packet model has no size-noise hook
  }
  switch (spec.policy) {
    case basrpt::sched::Policy::kSrpt:
      return PacketPolicy::kSrpt;
    case basrpt::sched::Policy::kFastBasrpt:
      return PacketPolicy::kFastBasrpt;
    case basrpt::sched::Policy::kFifo:
      return PacketPolicy::kFifo;
    default:
      return std::nullopt;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace basrpt;

  CliParser cli("bench_packet_vs_flow",
                "packet-level vs flow-level simulation of one trace");
  cli.real("load", 0.5, "per-host offered load")
      .real("v", 2500.0, "paper-equivalent BASRPT weight")
      .real("pkt-horizon", 0.05, "simulated seconds (packet events are "
                                 "~1000x denser than flow events)")
      .text("scheduler", "",
            "comma-separated scheduler specs (sched::SchedulerSpec::parse "
            "grammar, v in paper units); default srpt,fast-basrpt,fifo");
  if (!bench::parse_common(cli, argc, argv)) {
    return 0;
  }
  const bool full = cli.get_flag("full");
  const std::int32_t racks = full ? 4 : 2;
  const std::int32_t per_rack = 4;
  const std::int32_t hosts = racks * per_rack;
  const SimTime horizon =
      seconds(cli.get_real("pkt-horizon") * (full ? 10.0 : 1.0));
  const double v_eff = core::scale_v(cli.get_real("v"), hosts);

  std::printf("=== packet-level vs flow-level: %d hosts, load %.2f, %s ===\n",
              hosts, cli.get_real("load"), to_string(horizon).c_str());

  // One trace, every simulator.
  Rng rng(static_cast<std::uint64_t>(cli.get_integer("seed")));
  const workload::TrafficSourcePtr source = workload::paper_mix(
      cli.get_real("load"), 0.25, racks, per_rack, gbps(10.0), horizon, rng);
  std::vector<workload::FlowArrival> trace;
  while (const auto arrival = source->next()) {
    trace.push_back(*arrival);
  }
  std::printf("trace: %zu flows\n\n", trace.size());

  // Both halves replay one recorded trace through model-specific result
  // types — there is no ExperimentResult cell to store or replay, so
  // the session runs checkpoint-free (the flags are rejected).
  bench::RunSession session(cli, "packet_vs_flow", hosts, horizon,
                            bench::RunSession::Checkpointing::kNone);

  std::vector<PvfCell> cells;
  const auto add_flow = [&](const sched::SchedulerSpec& spec,
                            std::string label) {
    PvfCell cell;
    cell.spec = spec;
    cell.label = std::move(label);
    cells.push_back(std::move(cell));
  };
  const auto add_packet = [&](pktsim::PacketPolicy policy, double v,
                              std::string label) {
    PvfCell cell;
    cell.packet = true;
    cell.policy = policy;
    cell.pkt_v = v;
    cell.label = std::move(label);
    cells.push_back(std::move(cell));
  };

  if (const std::string list = cli.get_text("scheduler"); list.empty()) {
    add_flow(sched::SchedulerSpec::srpt(), "srpt");
    add_packet(pktsim::PacketPolicy::kSrpt, v_eff, "srpt");
    add_flow(sched::SchedulerSpec::fast_basrpt(v_eff), "fast-basrpt");
    add_packet(pktsim::PacketPolicy::kFastBasrpt, v_eff, "fast-basrpt");
    add_flow(sched::SchedulerSpec::fifo(), "fifo");
    add_packet(pktsim::PacketPolicy::kFifo, v_eff, "fifo");
  } else {
    std::size_t start = 0;
    while (start <= list.size()) {
      const std::size_t comma = list.find(',', start);
      const std::string text =
          list.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      start = comma == std::string::npos ? list.size() + 1 : comma + 1;
      sched::SchedulerSpec spec;
      try {
        spec = sched::SchedulerSpec::parse(text);
      } catch (const ConfigError& e) {
        std::fprintf(stderr, "error: --scheduler '%s': %s\n", text.c_str(),
                     e.what());
        return 2;
      }
      // Specs carry paper-equivalent V; the simulators want it scaled to
      // this fabric, exactly like the --v flag. Rows keep the paper-units
      // text the user typed.
      const std::string label = spec.to_string();
      spec.v = core::scale_v(spec.v, hosts);
      add_flow(spec, label);
      if (const auto policy = packet_policy(spec); policy.has_value()) {
        add_packet(*policy, spec.v, sched::to_string(spec.policy));
      } else {
        std::fprintf(stderr,
                     "note: %s has no packet-level realization; flow row "
                     "only\n",
                     text.c_str());
      }
    }
  }

  stats::Table table({"model", "policy", "qry avg ms", "qry slowdown",
                      "bg avg ms", "bg slowdown", "thpt Gbps"});
  std::vector<std::vector<std::string>> rows(cells.size());

  const auto pkt_cell = [&](const PvfCell& cell, obs::FlowTracer* tracer) {
    pktsim::PacketSimConfig config;
    config.hosts = hosts;
    config.policy = cell.policy;
    config.v = cell.pkt_v;
    config.horizon = horizon;
    session.apply(config);
    config.tracer = tracer;  // this cell's shard under --jobs
    workload::VectorTraffic replay(trace);
    const auto r = run_packet_sim(config, replay);
    const auto q = r.fct.summary(stats::FlowClass::kQuery);
    const auto b = r.fct.summary(stats::FlowClass::kBackground);
    return std::vector<std::string>{
        "packet", cell.label, stats::cell(q.mean_seconds * 1e3),
        stats::cell(q.mean_slowdown, 2), stats::cell(b.mean_seconds * 1e3),
        stats::cell(b.mean_slowdown, 2),
        stats::cell(r.throughput().bits_per_sec / 1e9, 2)};
  };

  const auto flow_cell = [&](const PvfCell& cell, obs::FlowTracer* tracer) {
    flowsim::FlowSimConfig config;
    config.fabric = topo::small_fabric(racks, per_rack, 3);
    config.horizon = horizon;
    session.apply(config);
    config.tracer = tracer;  // this cell's shard under --jobs
    auto scheduler = sched::make_scheduler(cell.spec);
    workload::VectorTraffic replay(trace);
    const auto r = run_flow_sim(config, *scheduler, replay);
    const auto q = r.fct.summary(stats::FlowClass::kQuery);
    const auto b = r.fct.summary(stats::FlowClass::kBackground);
    return std::vector<std::string>{
        "flow", cell.label, stats::cell(q.mean_seconds * 1e3),
        stats::cell(q.mean_slowdown, 2), stats::cell(b.mean_seconds * 1e3),
        stats::cell(b.mean_slowdown, 2),
        stats::cell(r.throughput().bits_per_sec / 1e9, 2)};
  };

  session.run_cells(
      cells.size(),
      [&](std::size_t i, obs::FlowTracer* tracer) {
        rows[i] = cells[i].packet ? pkt_cell(cells[i], tracer)
                                  : flow_cell(cells[i], tracer);
      },
      [&](std::size_t i) {
        table.add_row(rows[i]);
        session.progress("%s %s done\n", cells[i].packet ? "packet" : "flow",
                         cells[i].label.c_str());
      });

  bench::emit(table, cli);
  std::printf(
      "\nexpected: per policy, packet- and flow-level FCTs agree to "
      "within the\nstore-and-forward constants (the fluid model is "
      "faithful); the decentralized\npacket realization loses a little "
      "to the centralized matching at the egress\n(uncoordinated senders "
      "converge and queue), and the SRPT>FIFO ordering is\npreserved in "
      "both models.\n");
  session.finish();
  return 0;
}
