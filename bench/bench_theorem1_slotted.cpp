// Theorem 1 validation on the exact Sec. III model (slotted input-queued
// switch): sweep V and measure (a) the time-average total backlog, which
// the theorem bounds as O(V), and (b) the time-average penalty ȳ(t)
// (mean remaining size of selected flows), whose gap to the optimum the
// theorem bounds by B'/V = N(1+NB)/(2V).
//
// The BvN randomized scheduler (the α* construction from the proof) and
// MaxWeight are run as references: BvN is backlog-oblivious and stable;
// MaxWeight is the V = 0 extreme.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "run_session.hpp"
#include "sched/bvn_scheduler.hpp"
#include "sched/factory.hpp"
#include "switchsim/arrivals.hpp"
#include "switchsim/slotted_sim.hpp"

int main(int argc, char** argv) {
  using namespace basrpt;

  CliParser cli("bench_theorem1_slotted",
                "Theorem 1 shapes: backlog O(V), penalty gap O(1/V)");
  cli.integer("ports", 6, "switch ports")
      .integer("slots", 200000, "horizon in slots")
      .real("load", 0.9, "per-port load (packets/slot)");
  if (!bench::parse_common(cli, argc, argv)) {
    return 0;
  }
  const auto n = static_cast<sched::PortId>(cli.get_integer("ports"));
  const auto horizon =
      static_cast<switchsim::Slot>(cli.get_integer("slots")) *
      (cli.get_flag("full") ? 10 : 1);
  const double load = cli.get_real("load");
  const auto seed = static_cast<std::uint64_t>(cli.get_integer("seed"));

  std::printf("=== Theorem 1 on the slotted model: N=%d, load=%.2f, %lld "
              "slots ===\n",
              n, load, static_cast<long long>(horizon));

  // Skewed traffic (rack-local heavy pairs + uniform queries): the
  // pattern Sec. II-B identifies as the dangerous one.
  const auto rates = switchsim::skewed_rates(n, load, 0.6);
  switchsim::SizeMix mix;
  mix.small = 1;
  mix.large = 24;
  mix.p_small = 0.9;

  bench::RunSession session(cli, "theorem1_slotted", n, horizon);

  stats::Table table({"scheduler", "avg backlog pkts", "avg penalty",
                      "qry avg FCT", "bg avg FCT", "thpt pkt/slot",
                      "stable"});
  const auto make_stream = [&] {
    return switchsim::bernoulli_arrivals(rates, mix, horizon, Rng(seed));
  };

  // Declares one slotted cell. The scheduler factory runs on the worker
  // thread (fresh scheduler per compute); the display name is captured
  // here from a throwaway instance so the row text never depends on
  // which thread ran the cell.
  exec::Sweep sweep;
  const auto add = [&](const std::string& label,
                       std::function<sched::SchedulerPtr()> make_scheduler) {
    switchsim::SlottedConfig config;
    config.n_ports = n;
    config.horizon = horizon;
    config.sample_every = 64;
    config.watched_dst = 1;
    session.apply(config);
    const std::string sched_name = make_scheduler()->name();
    sweep.add_slotted(label, config, std::move(make_scheduler), make_stream,
                      [&, sched_name](const switchsim::SlottedResult& r) {
                        const auto q = r.fct.summary(stats::FlowClass::kQuery);
                        const auto b =
                            r.fct.summary(stats::FlowClass::kBackground);
                        table.add_row(
                            {sched_name,
                             stats::cell(r.backlog_packets.mean(), 1),
                             stats::cell(r.penalty.mean(), 2),
                             stats::cell(q.mean_seconds, 1),
                             stats::cell(b.mean_seconds, 1),
                             stats::cell(r.throughput_pkts_per_slot(), 3),
                             stats::classify_trend(r.backlog.total()).growing
                                 ? "NO"
                                 : "yes"});
                        session.progress("%s done\n", sched_name.c_str());
                      });
  };

  for (const double v : {10.0, 40.0, 160.0, 640.0, 2560.0}) {
    char label[32];
    std::snprintf(label, sizeof(label), "v%d", static_cast<int>(v));
    add(label, [v] {
      return sched::make_scheduler(sched::SchedulerSpec::fast_basrpt(v));
    });
  }
  add("srpt", [] {
    return sched::make_scheduler(sched::SchedulerSpec::srpt());
  });
  add("maxweight", [] {
    return sched::make_scheduler(sched::SchedulerSpec::maxweight());
  });
  add("bvn", [n, seed] {
    return std::make_unique<sched::BvnScheduler>(
        switchsim::skewed_rates(n, 0.98, 0.6), Rng(seed + 1));
  });
  session.run_sweep(sweep);

  bench::emit(table, cli);
  std::printf(
      "\nexpected: avg backlog grows roughly linearly in V; avg penalty "
      "(and query FCT)\nfalls toward the SRPT value as V grows; SRPT may "
      "go unstable; MaxWeight and BvN\nstay stable with poor penalty.\n");
  session.finish();
  return 0;
}
