// Microbenchmarks (google-benchmark): scheduler decision cost and the
// matching substrate.
//
// This quantifies Sec. IV-C's complexity argument: exact BASRPT's
// traversal of maximal schemes explodes with port count (it is capped at
// tiny fabrics here), while fast BASRPT's greedy pass costs the same
// O(K log K) as SRPT and MaxWeight pays the Hungarian O(N^3).
//
// Two modes share the fixtures:
//  * default — google-benchmark console output, for interactive tuning;
//  * --perf-out=PATH — the perf::measure_op harness (median of --reps
//    repetitions after --warmup untimed calls) writes a basrpt-bench-v1
//    record for the regression gate. Empirically the same-host noise
//    floor of the decide loop is ~2-5% on throughput and ~10-30% on p99
//    tails (rep_spread_frac in the record carries the per-run value);
//    the gate tolerances in docs/PERF.md are set above that floor, so
//    a flagged regression is a code change, not scheduler jitter.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "fabric/candidate_cache.hpp"
#include "matching/birkhoff.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/hungarian.hpp"
#include "perf/bench_record.hpp"
#include "perf/measure.hpp"
#include "queueing/voq.hpp"
#include "sched/factory.hpp"
#include "switchsim/arrivals.hpp"

namespace {

using namespace basrpt;
using queueing::Flow;
using queueing::VoqMatrix;
using sched::PortId;

VoqMatrix random_state(PortId n_ports, int n_flows, std::uint64_t seed) {
  Rng rng(seed);
  VoqMatrix voqs(n_ports);
  for (queueing::FlowId id = 0; id < n_flows; ++id) {
    Flow f;
    f.id = id;
    f.src = static_cast<PortId>(rng.uniform_int(0, n_ports - 1));
    f.dst = static_cast<PortId>(rng.uniform_int(0, n_ports - 2));
    if (f.dst >= f.src) {
      ++f.dst;
    }
    f.size = Bytes{rng.uniform_int(1, 33'000)};
    f.remaining = f.size;
    f.arrival = SimTime{rng.uniform01()};
    voqs.add_flow(f);
  }
  return voqs;
}

void run_decision_bench(benchmark::State& state,
                        const sched::SchedulerSpec& spec) {
  const auto ports = static_cast<PortId>(state.range(0));
  const auto flows = static_cast<int>(state.range(1));
  auto scheduler = sched::make_scheduler(spec);
  const VoqMatrix voqs = random_state(ports, flows, 42);
  sched::CandidateSoA soa;
  const sched::CandidateView view = sched::CandidateView::from_aos(
      sched::build_candidates(voqs, 1.0), soa);
  for (auto _ : state) {
    auto decision = scheduler->decide(ports, view);
    benchmark::DoNotOptimize(decision);
  }
  state.SetLabel(scheduler->name());
}

// The decide benchmarks are registered from a scheduler-spec list
// (sched::SchedulerSpec::parse grammar) so `--scheduler=LIST` can swap
// the set without recompiling. The default list reproduces the
// original five fixtures.
constexpr const char* kDefaultSchedulers =
    "srpt,fast-basrpt:v=2500,threshold-srpt:threshold=1000,maxweight,"
    "exact-basrpt:v=2500";

/// Benchmark sizes for one policy: the paper's evaluation scale is 144
/// ports; the candidate count (second argument) is the number of
/// non-empty VOQs. O(K log K) policies get the 20000-candidate point;
/// exact BASRPT's traversal is exponential — 6 ports is already the
/// practical ceiling, which is the paper's point.
std::vector<std::pair<std::int64_t, std::int64_t>> decide_sizes(
    sched::Policy policy) {
  switch (policy) {
    case sched::Policy::kSrpt:
    case sched::Policy::kFastBasrpt:
      return {{24, 200}, {144, 2000}, {144, 20000}};
    case sched::Policy::kExactBasrpt:
      return {{4, 12}, {5, 20}, {6, 30}};
    default:
      return {{24, 200}, {144, 2000}};
  }
}

void register_decide_benchmarks(const std::string& list) {
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
      std::exit(2);
    }
    auto* bench = benchmark::RegisterBenchmark(
        ("BM_Decide<" + spec.to_string() + ">").c_str(),
        [spec](benchmark::State& state) { run_decision_bench(state, spec); });
    for (const auto& [ports, flows] : decide_sizes(spec.policy)) {
      bench->Args({ports, flows});
    }
  }
}

// ----------------------------------------------------- candidate building

void BM_BuildCandidates(benchmark::State& state) {
  const auto ports = static_cast<PortId>(state.range(0));
  const auto flows = static_cast<int>(state.range(1));
  const VoqMatrix voqs = random_state(ports, flows, 7);
  for (auto _ : state) {
    auto candidates = sched::build_candidates(voqs, 1500.0);
    benchmark::DoNotOptimize(candidates);
  }
}
BENCHMARK(BM_BuildCandidates)->Args({24, 2000})->Args({144, 20000});

// -------------------------------------------------------------- matching

void BM_GreedyMaximal(benchmark::State& state) {
  const auto n = static_cast<PortId>(state.range(0));
  Rng rng(3);
  std::vector<matching::ScoredCandidate> candidates;
  for (int e = 0; e < n * 12; ++e) {
    candidates.push_back({static_cast<PortId>(rng.uniform_int(0, n - 1)),
                          static_cast<PortId>(rng.uniform_int(0, n - 1)),
                          rng.uniform01(), e});
  }
  for (auto _ : state) {
    auto result = matching::greedy_maximal(candidates, n, n);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GreedyMaximal)->Arg(24)->Arg(144);

void BM_Hungarian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<std::vector<double>> weights(n, std::vector<double>(n));
  for (auto& row : weights) {
    for (auto& w : row) {
      w = rng.uniform(0.0, 1e6);
    }
  }
  for (auto _ : state) {
    auto m = matching::max_weight_perfect(weights);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_Hungarian)->Arg(24)->Arg(144);

void BM_HopcroftKarp(benchmark::State& state) {
  const auto n = static_cast<PortId>(state.range(0));
  Rng rng(5);
  matching::BipartiteGraph g(n, n);
  for (PortId l = 0; l < n; ++l) {
    for (int k = 0; k < 8; ++k) {
      g.add_edge(l, static_cast<PortId>(rng.uniform_int(0, n - 1)));
    }
  }
  for (auto _ : state) {
    auto m = matching::hopcroft_karp(g);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(24)->Arg(144);

void BM_BirkhoffDecompose(benchmark::State& state) {
  const auto n = static_cast<PortId>(state.range(0));
  const auto doubly = matching::complete_to_doubly_stochastic(
      switchsim::uniform_rates(n, 0.95));
  for (auto _ : state) {
    auto terms = matching::birkhoff_decompose(doubly);
    benchmark::DoNotOptimize(terms);
  }
}
BENCHMARK(BM_BirkhoffDecompose)->Arg(8)->Arg(24);

// ------------------------------------------------- perf-record mode

/// Port counts for the gated record: the paper's 144 plus a small and a
/// doubled point, so scaling regressions (not just constant-factor
/// ones) move a gated metric. Candidate count tracks the sims' typical
/// load factor of ~40 flows per port.
std::vector<std::pair<PortId, int>> perf_sizes(sched::Policy policy) {
  switch (policy) {
    case sched::Policy::kExactBasrpt:
      return {{4, 12}, {5, 20}, {6, 30}};
    case sched::Policy::kMaxWeight:
      return {{16, 640}, {144, 5760}};  // Hungarian at 288 blows the budget
    default:
      return {{16, 640}, {144, 5760}, {288, 11520}};
  }
}

/// The simulators' decision path under churn: a cache over a live
/// VoqMatrix, refreshed and decided on after every small mutation, so
/// the greedy schedulers' kept matching is what gets measured. Each step
/// is one completion event followed by one arrival: the previous
/// decision's flows drain by the same amount (equal rates), which
/// completes the one closest to done, and one flow is admitted. One
/// completion and one arrival per step keep the population fixed.
struct DecideChurn {
  VoqMatrix voqs;
  fabric::CandidateCache cache;
  Rng rng;
  sched::Decision decision;
  queueing::FlowId next_id;

  DecideChurn(PortId ports, int flows, std::uint64_t seed)
      : voqs(random_state(ports, flows, seed)),
        cache(voqs, 1.0, false),
        rng(seed + 1),
        next_id(flows) {}

  void step() {
    const std::vector<queueing::FlowId>& served = decision.selected;
    if (!served.empty()) {
      queueing::FlowId done = served[0];
      for (const queueing::FlowId id : served) {
        if (voqs.flow(id).remaining < voqs.flow(done).remaining) {
          done = id;
        }
      }
      const Bytes amount = voqs.flow(done).remaining;
      for (const queueing::FlowId id : served) {
        voqs.drain(id, id == done ? amount : Bytes{amount.count - 1});
      }
    }
    const PortId ports = voqs.ports();
    Flow f;
    f.id = next_id++;
    f.src = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    f.dst = static_cast<PortId>(rng.uniform_int(0, ports - 2));
    if (f.dst >= f.src) {
      ++f.dst;
    }
    f.size = Bytes{rng.uniform_int(1, 33'000)};
    f.remaining = f.size;
    voqs.add_flow(f);
  }
};

int run_perf_mode(const std::string& list, const std::string& out_path,
                  int warmup, int reps) {
  perf::BenchRecord record = perf::make_record("sched_micro", warmup, reps);
  perf::MeasureOptions options;
  options.warmup = warmup;
  options.reps = reps;

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
    auto scheduler = sched::make_scheduler(spec);
    for (const auto& [ports, flows] : perf_sizes(spec.policy)) {
      sched::CandidateSoA soa;
      const sched::CandidateView view = sched::CandidateView::from_aos(
          sched::build_candidates(random_state(ports, flows, 42), 1.0), soa);
      // decide_into with a reused Decision is the simulators' hot path;
      // steady state must not allocate, and the record enforces that.
      sched::Decision decision;
      const perf::Measurement m = perf::measure_op(
          [&] {
            scheduler->decide_into(ports, view, decision);
            benchmark::DoNotOptimize(decision.selected.data());
          },
          options);

      perf::BenchCase c;
      c.label = "decide/" + spec.to_string() +
                "/ports=" + std::to_string(ports);
      c.param("scheduler", spec.to_string());
      c.param("ports", std::to_string(ports));
      c.param("flows", std::to_string(flows));
      c.param("iters_per_rep", std::to_string(m.iters_per_rep));
      c.metric("decisions_per_sec", m.ops_per_sec);
      c.metric("ns_mean", m.ns_mean);
      c.metric("ns_p50", m.ns_p50);
      c.metric("ns_p99", m.ns_p99);
      c.metric("ns_p999", m.ns_p999);
      c.metric("allocs_per_decision", m.allocs_per_op);
      c.metric("rep_spread_frac", m.rep_spread_frac);
      record.cases.push_back(std::move(c));
      std::printf("%-40s %12.0f decisions/s  p99 %7.0f ns  "
                  "allocs/op %.3f  spread %.1f%%\n",
                  record.cases.back().label.c_str(), m.ops_per_sec, m.ns_p99,
                  m.allocs_per_op, m.rep_spread_frac * 100.0);
    }
    if (spec.policy != sched::Policy::kSrpt &&
        spec.policy != sched::Policy::kFastBasrpt) {
      continue;
    }
    for (const auto& [ports, flows] : perf_sizes(spec.policy)) {
      DecideChurn churn(ports, flows, 42);
      scheduler->decide_into(ports, churn.cache.refresh(), churn.decision);
      const std::size_t start_candidates = churn.cache.refresh().size();
      const perf::Measurement m = perf::measure_op(
          [&] {
            scheduler->decide_into(ports, churn.cache.refresh(),
                                   churn.decision);
            benchmark::DoNotOptimize(churn.decision.selected.data());
          },
          options, [&] { churn.step(); });

      perf::BenchCase c;
      c.label = "decide/" + spec.to_string() +
                "/churn/ports=" + std::to_string(ports);
      c.param("scheduler", spec.to_string());
      c.param("ports", std::to_string(ports));
      c.param("flows", std::to_string(flows));
      c.param("candidates_start", std::to_string(start_candidates));
      c.param("candidates_end", std::to_string(churn.cache.refresh().size()));
      c.param("iters_per_rep", std::to_string(m.iters_per_rep));
      c.metric("decisions_per_sec", m.ops_per_sec);
      c.metric("ns_mean", m.ns_mean);
      c.metric("ns_p50", m.ns_p50);
      c.metric("ns_p99", m.ns_p99);
      c.metric("ns_p999", m.ns_p999);
      c.metric("allocs_per_decision", m.allocs_per_op);
      c.metric("rep_spread_frac", m.rep_spread_frac);
      record.cases.push_back(std::move(c));
      std::printf("%-40s %12.0f decisions/s  p99 %7.0f ns  "
                  "allocs/op %.3f  spread %.1f%%  candidates %zu -> %s\n",
                  record.cases.back().label.c_str(), m.ops_per_sec, m.ns_p99,
                  m.allocs_per_op, m.rep_spread_frac * 100.0,
                  start_candidates,
                  std::to_string(churn.cache.refresh().size()).c_str());
    }
  }
  perf::write_record_file(out_path, record);
  std::printf("wrote %zu cases to %s\n", record.cases.size(),
              out_path.c_str());
  return 0;
}

}  // namespace

// Custom main: `--scheduler=LIST`, `--perf-out=PATH`, `--warmup=N` and
// `--reps=N` are ours (google-benchmark rejects unknown flags), so they
// are consumed before Initialize sees argv. --perf-out switches to the
// measure_op harness and skips google-benchmark entirely.
int main(int argc, char** argv) {
  std::string list = kDefaultSchedulers;
  std::string perf_out;
  int warmup = 500;
  int reps = 5;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scheduler=", 12) == 0) {
      list = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--perf-out=", 11) == 0) {
      perf_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--warmup=", 9) == 0) {
      warmup = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!perf_out.empty()) {
    return run_perf_mode(list, perf_out, warmup, reps);
  }
  register_decide_benchmarks(list);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
