// Unit tests for src/matching: greedy, Hopcroft–Karp, Hungarian,
// Birkhoff–von-Neumann, maximal-matching enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "matching/bipartite.hpp"
#include "matching/birkhoff.hpp"
#include "matching/enumerate.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/hungarian.hpp"
#include "obs/metrics.hpp"

namespace basrpt::matching {
namespace {

// -------------------------------------------------------------- bipartite

TEST(Bipartite, ValidMatchingAcceptsPartial) {
  Matching m{{1, kUnmatched, 0}};
  EXPECT_TRUE(is_valid_matching(m, 3));
}

TEST(Bipartite, ValidMatchingRejectsDuplicateRight) {
  Matching m{{1, 1, kUnmatched}};
  EXPECT_FALSE(is_valid_matching(m, 3));
}

TEST(Bipartite, MaximalityDetectsAddableEdge) {
  const std::vector<Edge> edges = {{0, 0}, {1, 1}};
  Matching only_first{{0, kUnmatched}};
  EXPECT_FALSE(is_maximal_matching(only_first, edges, 2));
  Matching both{{0, 1}};
  EXPECT_TRUE(is_maximal_matching(both, edges, 2));
}

// ----------------------------------------------------------------- greedy

TEST(Greedy, PrefersLowerScores) {
  // Two candidates compete for ingress 0; the lower score wins.
  std::vector<ScoredCandidate> c = {
      {0, 0, 5.0, 100},
      {0, 1, 1.0, 101},
  };
  const auto result = greedy_maximal(c, 2, 2);
  ASSERT_EQ(result.selected_payloads.size(), 1u);
  EXPECT_EQ(result.selected_payloads[0], 101);
  EXPECT_EQ(result.matching.match_of_left[0], 1);
}

TEST(Greedy, ProducesMaximalMatching) {
  std::vector<ScoredCandidate> c = {
      {0, 0, 1.0, 1}, {0, 1, 2.0, 2}, {1, 0, 3.0, 3}, {1, 1, 4.0, 4}};
  const auto result = greedy_maximal(c, 2, 2);
  // Greedy takes (0,0) then must take (1,1).
  EXPECT_EQ(result.selected_payloads.size(), 2u);
  std::vector<Edge> edges;
  for (const auto& cand : c) {
    edges.push_back({cand.left, cand.right});
  }
  EXPECT_TRUE(is_maximal_matching(result.matching, edges, 2));
}

TEST(Greedy, TieBrokenByPayloadDeterministically) {
  std::vector<ScoredCandidate> c = {{0, 0, 1.0, 7}, {0, 1, 1.0, 3}};
  const auto result = greedy_maximal(c, 1, 2);
  ASSERT_EQ(result.selected_payloads.size(), 1u);
  EXPECT_EQ(result.selected_payloads[0], 3);
}

TEST(Greedy, EmptyCandidatesGiveEmptyDecision) {
  const auto result = greedy_maximal({}, 4, 4);
  EXPECT_TRUE(result.selected_payloads.empty());
  EXPECT_EQ(result.matching.size(), 0u);
}

TEST(Greedy, BlockedPortsSkipCandidates) {
  // Three flows all from ingress 0: only one can go.
  std::vector<ScoredCandidate> c = {
      {0, 0, 3.0, 1}, {0, 1, 1.0, 2}, {0, 2, 2.0, 3}};
  const auto result = greedy_maximal(c, 1, 3);
  ASSERT_EQ(result.selected_payloads.size(), 1u);
  EXPECT_EQ(result.selected_payloads[0], 2);
}

/// Transposes AoS candidates into lanes and matches them, untracked.
void match_aos(GreedyMatcher& matcher,
               const std::vector<ScoredCandidate>& candidates, PortId n_left,
               PortId n_right, std::vector<std::int64_t>& out) {
  std::vector<double> score;
  std::vector<PortId> left;
  std::vector<PortId> right;
  std::vector<std::int64_t> payload;
  for (const ScoredCandidate& c : candidates) {
    score.push_back(c.score);
    left.push_back(c.left);
    right.push_back(c.right);
    payload.push_back(c.payload);
  }
  matcher.match_lanes_into(score.data(), left.data(), right.data(),
                           payload.data(), candidates.size(), n_left, n_right,
                           out);
}

// Oracle check for GreedyMatcher: its sort must pick exactly the
// payloads greedy_maximal's stable_sort picks, in the same order.
void expect_matcher_matches_oracle(std::vector<ScoredCandidate> candidates,
                                   PortId n_left, PortId n_right) {
  const GreedyResult oracle = greedy_maximal(candidates, n_left, n_right);
  GreedyMatcher matcher;
  std::vector<std::int64_t> selected;
  match_aos(matcher, candidates, n_left, n_right, selected);
  EXPECT_EQ(selected, oracle.selected_payloads);
}

TEST(Greedy, MatcherRadixMatchesStableSortOracle) {
  // Large candidate sets with deliberate score collisions: scores drawn
  // from a coarse grid (many exact ties, resolved by payload), plus a
  // sprinkle of +0.0/-0.0 and negatives. Payloads are distinct, as the
  // schedulers guarantee.
  for (std::uint64_t seed : {3u, 7u, 23u}) {
    Rng rng(seed);
    const PortId ports = 48;
    std::vector<ScoredCandidate> candidates;
    for (int k = 0; k < 2000; ++k) {
      ScoredCandidate c;
      c.left = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      c.right = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      const std::int64_t grid = rng.uniform_int(-8, 8);
      c.score = rng.bernoulli(0.25)
                    ? static_cast<double>(grid) * 1500.0
                    : rng.uniform(-1e6, 1e6);
      if (grid == 0 && rng.bernoulli(0.5)) {
        c.score = rng.bernoulli(0.5) ? 0.0 : -0.0;
      }
      c.payload = k;
      candidates.push_back(c);
    }
    expect_matcher_matches_oracle(std::move(candidates), ports, ports);
  }
}

TEST(Greedy, MatcherBimodalScoresMatchOracle) {
  // Threshold-SRPT-shaped keys: two clusters a class offset (1e12)
  // apart, plus a few outliers below and above both clusters.
  for (std::uint64_t seed : {5u, 17u}) {
    Rng rng(seed);
    const PortId ports = 48;
    std::vector<ScoredCandidate> candidates;
    for (int k = 0; k < 3000; ++k) {
      ScoredCandidate c;
      c.left = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      c.right = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      c.score = rng.uniform(0.0, 1e6) + (rng.bernoulli(0.5) ? 0.0 : 1e12);
      if (rng.bernoulli(0.01)) {
        c.score = rng.bernoulli(0.5) ? -1e5 : 3e12;
      }
      c.payload = k;
      candidates.push_back(c);
    }
    expect_matcher_matches_oracle(std::move(candidates), ports, ports);
  }
}

TEST(Greedy, MatcherSortedInputMatchesOracle) {
  // Already sorted scores with runs of equal scores, with and without
  // out-of-order payloads inside a tie: both shapes must agree with the
  // oracle.
  Rng rng(29);
  const PortId ports = 32;
  for (const bool scramble_tie_payloads : {false, true}) {
    std::vector<ScoredCandidate> candidates;
    for (int k = 0; k < 1500; ++k) {
      ScoredCandidate c;
      c.left = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      c.right = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      c.score = static_cast<double>(k / 3);  // runs of equal scores
      c.payload = k;
      candidates.push_back(c);
    }
    if (scramble_tie_payloads) {
      std::swap(candidates[30].payload, candidates[31].payload);
    }
    expect_matcher_matches_oracle(std::move(candidates), ports, ports);
  }
}

TEST(Greedy, MatcherLogSpreadScoresMatchOracle) {
  // Scores spanning ~50 orders of magnitude, from 2^-80 to 2^81: the
  // sort must still land the exact order.
  Rng rng(31);
  const PortId ports = 48;
  std::vector<ScoredCandidate> candidates;
  for (int k = 0; k < 2000; ++k) {
    ScoredCandidate c;
    c.left = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    c.right = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    c.score = std::ldexp(rng.uniform(1.0, 2.0),
                         static_cast<int>(rng.uniform_int(-80, 80)));
    c.payload = k;
    candidates.push_back(c);
  }
  expect_matcher_matches_oracle(std::move(candidates), ports, ports);
}

TEST(Greedy, MatcherComparisonPathMatchesOracleBelowThreshold) {
  // Sets of 127 and 128 candidates over six distinct scores, so most
  // of the order comes from the payload tie-break: both must agree with
  // the oracle.
  for (std::size_t n : {std::size_t{127}, std::size_t{128}}) {
    Rng rng(n);
    std::vector<ScoredCandidate> candidates;
    for (std::size_t k = 0; k < n; ++k) {
      candidates.push_back(
          {static_cast<PortId>(rng.uniform_int(0, 15)),
           static_cast<PortId>(rng.uniform_int(0, 15)),
           static_cast<double>(rng.uniform_int(0, 5)),
           static_cast<std::int64_t>(k)});
    }
    expect_matcher_matches_oracle(std::move(candidates), 16, 16);
  }
}

TEST(Greedy, MatcherReusedAcrossCallsStaysExact) {
  // The matcher's scratch persists across calls; stale state from a big
  // call must not leak into a later small one (and vice versa).
  GreedyMatcher matcher;
  std::vector<std::int64_t> selected;
  Rng rng(91);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = (round % 2 == 0) ? 800 : 20;
    std::vector<ScoredCandidate> candidates;
    for (std::size_t k = 0; k < n; ++k) {
      candidates.push_back(
          {static_cast<PortId>(rng.uniform_int(0, 31)),
           static_cast<PortId>(rng.uniform_int(0, 31)),
           rng.uniform(0.0, 100.0), static_cast<std::int64_t>(k)});
    }
    const GreedyResult oracle = greedy_maximal(candidates, 32, 32);
    match_aos(matcher, candidates, 32, 32, selected);
    EXPECT_EQ(selected, oracle.selected_payloads);
  }
}

TEST(Greedy, RejectsPortCountsPastSixteenBits) {
  // Sort records pack ports into 16 bits; 65535 ports still fit.
  GreedyMatcher matcher;
  std::vector<std::int64_t> selected;
  const std::vector<ScoredCandidate> candidates = {{0, 1, 1.0, 7}};
  match_aos(matcher, candidates, 0xffff, 0xffff, selected);
  EXPECT_EQ(selected, std::vector<std::int64_t>{7});
  EXPECT_THROW(match_aos(matcher, candidates, 0x10000, 2, selected),
               SimulationError);
  EXPECT_THROW(match_aos(matcher, candidates, 2, 0x10000, selected),
               SimulationError);
}

// --------------------------------------------------------- tracked repair

/// A lane producer with the candidate cache's contract, driven by hand:
/// one entry per VOQ, new entries appended, a removal filled by moving
/// the last entry into its position, and each refresh listing the
/// positions rewritten since the previous one.
class LaneSource {
 public:
  LaneSource(PortId ports, std::uint64_t source)
      : ports_(ports), source_(source) {}

  std::size_t size() const { return score.size(); }
  bool has(PortId l, PortId r) const {
    for (std::size_t k = 0; k < size(); ++k) {
      if (left[k] == l && right[k] == r) {
        return true;
      }
    }
    return false;
  }
  std::size_t position_of(std::int64_t id) const {
    return static_cast<std::size_t>(
        std::find(payload.begin(), payload.end(), id) - payload.begin());
  }

  void insert(PortId l, PortId r, double key, std::int64_t id) {
    score.push_back(key);
    left.push_back(l);
    right.push_back(r);
    payload.push_back(id);
    touched_.push_back(static_cast<std::uint32_t>(size() - 1));
  }
  void set(std::size_t pos, double key, std::int64_t id) {
    score[pos] = key;
    payload[pos] = id;
    touched_.push_back(static_cast<std::uint32_t>(pos));
  }
  void remove(std::size_t pos) {
    const std::size_t last = size() - 1;
    if (pos != last) {
      score[pos] = score[last];
      left[pos] = left[last];
      right[pos] = right[last];
      payload[pos] = payload[last];
      touched_.push_back(static_cast<std::uint32_t>(pos));
    }
    score.pop_back();
    left.pop_back();
    right.pop_back();
    payload.pop_back();
  }

  /// Ends a refresh: the positions still in the view that it rewrote,
  /// once each.
  LaneChanges refresh() {
    changed_.clear();
    for (const std::uint32_t pos : touched_) {
      if (pos < size() &&
          std::find(changed_.begin(), changed_.end(), pos) ==
              changed_.end()) {
        changed_.push_back(pos);
      }
    }
    touched_.clear();
    return {source_, ++seq_, changed_.data(), changed_.size()};
  }

  std::vector<ScoredCandidate> candidates() const {
    std::vector<ScoredCandidate> out;
    for (std::size_t k = 0; k < size(); ++k) {
      out.push_back({left[k], right[k], score[k], payload[k]});
    }
    return out;
  }

  void match(GreedyMatcher& matcher, const LaneChanges& changes,
             std::vector<std::int64_t>& out) const {
    matcher.match_lanes_into(score.data(), left.data(), right.data(),
                             payload.data(), size(), ports_, ports_, changes,
                             out);
  }

  std::vector<double> score;
  std::vector<PortId> left;
  std::vector<PortId> right;
  std::vector<std::int64_t> payload;

 private:
  PortId ports_;
  std::uint64_t source_;
  std::uint64_t seq_ = 0;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> changed_;
};

/// Binds a fresh registry with phase timing on, for reading the
/// matcher's exact work counts.
class PhaseProbe {
 public:
  PhaseProbe() : was_enabled_(obs::enabled()), bind_(&registry_) {
    obs::set_enabled(true);
  }
  ~PhaseProbe() { obs::set_enabled(was_enabled_); }
  const obs::PhaseStats& phase(obs::Phase p) const {
    return registry_.phase(p);
  }

 private:
  obs::Registry registry_;
  bool was_enabled_;
  obs::ScopedRegistryBind bind_;
};

TEST(GreedyRepair, MatchesTheOracleUnderRandomChurn) {
  // Arbitrary rises and falls of matched and unmatched keys, head
  // changes, exact score ties broken by payload (a coarse grid, signed
  // zeros), inserts, removals that move the last entry, refreshes
  // decided twice and refreshes never decided: every decision must be
  // greedy_maximal's, in its order.
  for (const PortId ports : {4, 8, 24, 144}) {
    SCOPED_TRACE(ports);
    Rng rng(static_cast<std::uint64_t>(ports) * 7919);
    LaneSource src(ports, 0xabc0 + static_cast<std::uint64_t>(ports));
    GreedyMatcher matcher;
    std::vector<std::int64_t> selected;
    std::int64_t next_id = 1;
    const auto key = [&]() -> double {
      const double u = rng.uniform01();
      if (u < 0.3) {
        return static_cast<double>(rng.uniform_int(-5, 15)) * 10.0;
      }
      if (u < 0.35) {
        return rng.bernoulli(0.5) ? 0.0 : -0.0;
      }
      return rng.uniform(-100.0, 200.0);
    };
    const auto moved = [&](double k) -> double {
      const double u = rng.uniform01();
      if (u < 0.2) {
        return static_cast<double>(rng.uniform_int(-5, 15)) * 10.0;
      }
      return k + (u < 0.6 ? -1.0 : 1.0) * rng.uniform(0.0, 60.0);
    };
    const auto admit = [&] {
      for (int tries = 0; tries < 8; ++tries) {
        const auto l = static_cast<PortId>(rng.uniform_int(0, ports - 1));
        const auto r = static_cast<PortId>(rng.uniform_int(0, ports - 1));
        if (!src.has(l, r)) {
          src.insert(l, r, key(), next_id++);
          return;
        }
      }
    };
    const std::size_t target = static_cast<std::size_t>(ports) * 3;
    for (std::size_t k = 0; k < target; ++k) {
      admit();
    }
    PhaseProbe probe;
    for (int step = 0; step < 240; ++step) {
      SCOPED_TRACE(step);
      // Served entries: most fall, some rise, some change head.
      for (const std::int64_t id : selected) {
        const std::size_t pos = src.position_of(id);
        const double u = rng.uniform01();
        if (u < 0.6) {
          src.set(pos, src.score[pos] - rng.uniform(0.0, 40.0), id);
        } else if (u < 0.75) {
          src.set(pos, moved(src.score[pos]), id);
        } else if (u < 0.85) {
          src.set(pos, key(), next_id++);
        } else if (u < 0.9) {
          src.remove(pos);
        }
      }
      // Unmatched and matched alike: random re-keys and removals.
      const int touches = static_cast<int>(rng.uniform_int(0, 4));
      for (int t = 0; t < touches && src.size() > 0; ++t) {
        const auto pos =
            static_cast<std::size_t>(rng.uniform_int(0, src.size() - 1));
        if (rng.bernoulli(0.3)) {
          src.remove(pos);
        } else {
          src.set(pos, moved(src.score[pos]),
                  rng.bernoulli(0.3) ? next_id++ : src.payload[pos]);
        }
      }
      const int arrivals = step % 40 == 20 ? static_cast<int>(ports)
                                           : static_cast<int>(
                                                 rng.uniform_int(0, 3));
      for (int a = 0; a < arrivals; ++a) {
        admit();
      }
      LaneChanges changes = src.refresh();
      if (step % 23 == 11) {
        changes = src.refresh();  // the refresh before was never decided
      }
      const std::vector<std::int64_t> oracle =
          greedy_maximal(src.candidates(), ports, ports).selected_payloads;
      src.match(matcher, changes, selected);
      ASSERT_EQ(selected, oracle);
      if (step % 13 == 5) {
        src.match(matcher, changes, selected);  // the same refresh again
        ASSERT_EQ(selected, oracle);
      }
    }
    // The repair, not the rebuild, decided most steps.
    EXPECT_GT(probe.phase(obs::Phase::kMatchRepair).calls,
              4 * probe.phase(obs::Phase::kMatchSort).calls);
  }
}

TEST(GreedyRepair, DrainOnlyStepKeepsTheMatchingWithoutACascade) {
  // Between two decisions only the served entries change, and their
  // keys fall: the matching stands (the lemma), so the repair re-keys
  // each changed entry and takes no cascade step. Equal drains keep the
  // selection's order too; unequal ones may reorder it, as the oracle
  // does.
  const PortId ports = 24;
  Rng rng(5);
  LaneSource src(ports, 0xd0);
  std::int64_t next_id = 1;
  while (src.size() < 120) {
    const auto l = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    const auto r = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    if (!src.has(l, r)) {
      // Whole packets, so equal drains keep every order exactly.
      src.insert(l, r, static_cast<double>(rng.uniform_int(1000, 9000)),
                 next_id++);
    }
  }
  GreedyMatcher matcher;
  std::vector<std::int64_t> selected;
  PhaseProbe probe;
  src.match(matcher, src.refresh(), selected);
  ASSERT_FALSE(selected.empty());
  for (const bool equal : {true, false}) {
    for (int round = 0; round < 5; ++round) {
      SCOPED_TRACE(round);
      const std::vector<std::int64_t> before = selected;
      for (const std::int64_t id : selected) {
        const std::size_t pos = src.position_of(id);
        const double drained =
            equal ? 7.0 : static_cast<double>(rng.uniform_int(1, 90));
        src.set(pos, src.score[pos] - drained, id);
      }
      const LaneChanges changes = src.refresh();
      const std::uint64_t work = probe.phase(obs::Phase::kMatchRepair).work;
      src.match(matcher, changes, selected);
      EXPECT_EQ(probe.phase(obs::Phase::kMatchRepair).work - work,
                changes.changed_count);
      EXPECT_EQ(selected,
                greedy_maximal(src.candidates(), ports, ports)
                    .selected_payloads);
      if (equal) {
        EXPECT_EQ(selected, before);
      } else {
        std::vector<std::int64_t> a = selected;
        std::vector<std::int64_t> b = before;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b);
      }
    }
  }
  EXPECT_EQ(probe.phase(obs::Phase::kMatchSort).calls, 1u);
}

// ------------------------------------------------------------ HopcroftKarp

TEST(HopcroftKarp, PerfectOnCompleteBipartite) {
  BipartiteGraph g(4, 4);
  for (PortId l = 0; l < 4; ++l) {
    for (PortId r = 0; r < 4; ++r) {
      g.add_edge(l, r);
    }
  }
  EXPECT_EQ(maximum_matching_size(g), 4u);
}

TEST(HopcroftKarp, FindsAugmentingPaths) {
  // Greedy-by-order would match (0,0) and block; HK must find size 2 via
  // augmentation: 0-0, 1-0 only ... structure: L0→{R0,R1}, L1→{R0}.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const Matching m = hopcroft_karp(g);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.match_of_left[1], 0);
  EXPECT_EQ(m.match_of_left[0], 1);
}

TEST(HopcroftKarp, EmptyGraphHasEmptyMatching) {
  BipartiteGraph g(3, 3);
  EXPECT_EQ(maximum_matching_size(g), 0u);
}

TEST(HopcroftKarp, HandlesUnbalancedSides) {
  BipartiteGraph g(3, 1);
  g.add_edge(0, 0);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  EXPECT_EQ(maximum_matching_size(g), 1u);
}

TEST(HopcroftKarp, MatchesKnownNonTrivialGraph) {
  // Max matching is 3 (not 4): R legs constrained.
  BipartiteGraph g(4, 4);
  g.add_edge(0, 0);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  g.add_edge(3, 2);
  EXPECT_EQ(maximum_matching_size(g), 3u);
}

// -------------------------------------------------------------- Hungarian

double brute_force_best(const std::vector<std::vector<double>>& w) {
  const std::size_t n = w.size();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  double best = -1e300;
  do {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += w[i][perm[i]];
    }
    best = std::max(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Hungarian, MatchesBruteForceOnRandomMatrices) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 5);
    std::vector<std::vector<double>> w(n, std::vector<double>(n));
    for (auto& row : w) {
      for (auto& v : row) {
        v = rng.uniform(0.0, 100.0);
      }
    }
    const Matching m = max_weight_perfect(w);
    EXPECT_EQ(m.size(), n);
    EXPECT_NEAR(matching_weight(m, w), brute_force_best(w), 1e-9)
        << "trial " << trial;
  }
}

TEST(Hungarian, HandlesZeroAndNegativeWeights) {
  std::vector<std::vector<double>> w = {{0.0, -5.0}, {-5.0, 0.0}};
  const Matching m = max_weight_perfect(w);
  EXPECT_NEAR(matching_weight(m, w), 0.0, 1e-12);
}

TEST(Hungarian, DiagonalDominantPicksDiagonal) {
  std::vector<std::vector<double>> w = {
      {10.0, 1.0, 1.0}, {1.0, 10.0, 1.0}, {1.0, 1.0, 10.0}};
  const Matching m = max_weight_perfect(w);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(m.match_of_left[i], static_cast<PortId>(i));
  }
}

// --------------------------------------------------------------- Birkhoff

TEST(Birkhoff, CompletionYieldsDoublyStochastic) {
  RateMatrix rates = {{0.2, 0.3, 0.0},
                      {0.1, 0.0, 0.4},
                      {0.0, 0.2, 0.1}};
  const RateMatrix m = complete_to_doubly_stochastic(rates);
  for (std::size_t i = 0; i < 3; ++i) {
    double row = 0.0;
    double col = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      row += m[i][j];
      col += m[j][i];
      EXPECT_GE(m[i][j] + 1e-12, rates[i][j]) << "entries must not shrink";
    }
    EXPECT_NEAR(row, 1.0, 1e-6);
    EXPECT_NEAR(col, 1.0, 1e-6);
  }
}

TEST(Birkhoff, CompletionRejectsInadmissible) {
  RateMatrix over = {{0.8, 0.4}, {0.0, 0.1}};  // row 0 sums to 1.2
  EXPECT_THROW(complete_to_doubly_stochastic(over), ConfigError);
}

TEST(Birkhoff, DecompositionReconstructsMatrix) {
  RateMatrix rates = {{0.25, 0.35, 0.2},
                      {0.3, 0.25, 0.4},
                      {0.4, 0.3, 0.25}};
  const RateMatrix m = complete_to_doubly_stochastic(rates);
  const auto terms = birkhoff_decompose(m);
  double total_weight = 0.0;
  for (const auto& t : terms) {
    EXPECT_GT(t.weight, 0.0);
    EXPECT_EQ(t.permutation.size(), 3u);
    total_weight += t.weight;
  }
  EXPECT_NEAR(total_weight, 1.0, 1e-6);
  const RateMatrix rebuilt = reconstruct(terms, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(rebuilt[i][j], m[i][j], 1e-6);
    }
  }
}

TEST(Birkhoff, TermCountWithinBirkhoffBound) {
  Rng rng(17);
  const std::size_t n = 6;
  RateMatrix rates(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      rates[i][j] = rng.uniform(0.0, 1.0 / static_cast<double>(n));
    }
  }
  const auto terms =
      birkhoff_decompose(complete_to_doubly_stochastic(rates));
  EXPECT_LE(terms.size(), (n - 1) * (n - 1) + 1 + 2);
}

TEST(Birkhoff, IdentityDecomposesToOneTerm) {
  RateMatrix eye = {{1.0, 0.0}, {0.0, 1.0}};
  const auto terms = birkhoff_decompose(eye);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_NEAR(terms[0].weight, 1.0, 1e-9);
  EXPECT_EQ(terms[0].permutation.match_of_left[0], 0);
  EXPECT_EQ(terms[0].permutation.match_of_left[1], 1);
}

TEST(Birkhoff, MaxLineSumComputed) {
  RateMatrix rates = {{0.2, 0.3}, {0.6, 0.1}};
  EXPECT_NEAR(max_line_sum(rates), 0.8, 1e-12);  // column 0
}

// -------------------------------------------------------------- enumerate

TEST(Enumerate, SingleEdgeHasOneMaximalMatching) {
  EXPECT_EQ(count_maximal_matchings({{0, 0}}, 1, 1), 1u);
}

TEST(Enumerate, TwoDisjointEdgesHaveOneMaximalMatching) {
  // Both edges can always be added, so the only maximal matching is both.
  EXPECT_EQ(count_maximal_matchings({{0, 0}, {1, 1}}, 2, 2), 1u);
}

TEST(Enumerate, SharedIngressYieldsOnePerEdge) {
  EXPECT_EQ(count_maximal_matchings({{0, 0}, {0, 1}}, 1, 2), 2u);
}

TEST(Enumerate, CompleteBipartite3x3HasFactorialMaximalMatchings) {
  std::vector<Edge> edges;
  for (PortId l = 0; l < 3; ++l) {
    for (PortId r = 0; r < 3; ++r) {
      edges.push_back({l, r});
    }
  }
  // On K_{n,n} every maximal matching is perfect: n! of them.
  EXPECT_EQ(count_maximal_matchings(edges, 3, 3), 6u);
}

TEST(Enumerate, AllVisitedMatchingsAreMaximal) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 0}, {2, 1}, {2, 2}};
  std::size_t visits = 0;
  for_each_maximal_matching(edges, 3, 3, [&](const Matching& m) {
    ++visits;
    EXPECT_TRUE(is_maximal_matching(m, edges, 3));
  });
  EXPECT_GT(visits, 0u);
}

TEST(Enumerate, DuplicateEdgesIgnored) {
  EXPECT_EQ(count_maximal_matchings({{0, 0}, {0, 0}, {0, 0}}, 1, 1), 1u);
}

TEST(Enumerate, RefusesLargeFabrics) {
  std::vector<Edge> edges = {{0, 0}};
  EXPECT_THROW(
      count_maximal_matchings(edges, 64, 64),
      ConfigError);
}

}  // namespace
}  // namespace basrpt::matching
