// Fig. 1 — the paper's 3-flow hand example of SRPT instability, executed
// on the slotted input-queued switch model.
//
// Expected shape (paper): within the 6-slot window SRPT completes only
// the two 1-packet flows and leaves 1 packet of f1; a backlog-aware
// schedule completes all 7 packets, at a 1-slot delay cost for one
// query.
#include <cstdio>

#include "bench_common.hpp"
#include "checkpoint_session.hpp"
#include "sched/factory.hpp"
#include "switchsim/slotted_sim.hpp"
#include "workload/adversarial.hpp"

namespace {

using namespace basrpt;

switchsim::ArrivalStream fig1_stream() {
  std::vector<switchsim::SlottedArrival> slotted;
  for (const auto& a : workload::fig1_example(seconds(1.0), Bytes{1})) {
    slotted.push_back({static_cast<switchsim::Slot>(a.time.seconds), a.src,
                       a.dst, a.size.count, a.cls});
  }
  return switchsim::stream_from_vector(slotted);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_fig1_example", "paper Fig. 1: 3-flow SRPT example");
  if (!bench::parse_common(cli, argc, argv)) {
    return 0;
  }
  bench::require_sequential(cli);

  std::printf("=== Fig. 1: SRPT vs backlog-aware on the 3-flow example ===\n");
  std::printf(
      "f1: 5 pkts A->C @slot0, f2: 1 pkt A->B @slot0, f3: 1 pkt D->C "
      "@slot1; 6 slots\n\n");

  bench::ObsSession obs_session(cli);
  bench::CheckpointSession ckpt(cli, "fig1_example", obs_session);
  stats::Table table({"scheme", "delivered pkts", "left pkts",
                      "flows done", "max query FCT (slots)"});

  const auto run = [&](const std::string& label,
                       sched::SchedulerPtr scheduler) {
    switchsim::SlottedConfig config;
    config.n_ports = 4;
    config.horizon = 6;
    config.sample_every = 1;
    config.watched_dst = 2;
    obs_session.apply(config);
    const auto result =
        ckpt.run_slotted(label, config, *scheduler, fig1_stream);
    const auto q = result.fct.summary(stats::FlowClass::kQuery);
    table.add_row({label, stats::cell(result.delivered_packets),
                   stats::cell(result.left_packets),
                   stats::cell(result.fct.completed_total()),
                   q.completed > 0 ? stats::cell(q.max_seconds, 0) : "-"});
  };

  run("srpt", sched::make_scheduler(sched::SchedulerSpec::srpt()));
  run("threshold-srpt(T=4.5)",
      sched::make_scheduler(sched::SchedulerSpec::threshold_srpt(4.5)));
  run("fast-basrpt(V=1)",
      sched::make_scheduler(sched::SchedulerSpec::fast_basrpt(1.0)));
  // V = 0.5 keeps the objective strictly in f1's favour at slot 0 (V = 1
  // ties the {f1} and {f2} schemes and the tiebreak is arbitrary).
  run("exact-basrpt(V=0.5)",
      sched::make_scheduler(sched::SchedulerSpec::exact_basrpt(0.5)));

  bench::emit(table, cli);
  std::printf(
      "\npaper: SRPT leaves 1 packet; the backlog-aware schedule clears all"
      " 7,\ncosting one query 1 extra slot (max FCT 2 instead of 1).\n");
  obs_session.finish();
  return 0;
}
