// Unit tests for src/sim: event engine ordering, clock semantics,
// periodic sampling, engine observability probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/ladder_queue.hpp"

namespace basrpt::sim {
namespace {

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(seconds(3.0), [&] { order.push_back(3); });
  engine.schedule_at(seconds(1.0), [&] { order.push_back(1); });
  engine.schedule_at(seconds(2.0), [&] { order.push_back(2); });
  engine.run_until(seconds(10.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now().seconds, 10.0);
  EXPECT_EQ(engine.executed(), 3u);
}

TEST(Engine, SimultaneousEventsFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(seconds(1.0), [&order, i] { order.push_back(i); });
  }
  engine.run_until(seconds(1.0));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, RunUntilLeavesLaterEventsPending) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(seconds(1.0), [&] { ++fired; });
  engine.schedule_at(seconds(5.0), [&] { ++fired; });
  engine.run_until(seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_DOUBLE_EQ(engine.now().seconds, 2.0);
  engine.run_until(seconds(5.0));
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsAtHorizonStillFire) {
  Engine engine;
  bool fired = false;
  engine.schedule_at(seconds(2.0), [&] { fired = true; });
  engine.run_until(seconds(2.0));
  EXPECT_TRUE(fired);
}

TEST(Engine, HandlersCanScheduleMoreEvents) {
  Engine engine;
  int chain = 0;
  std::function<void()> step = [&]() {
    ++chain;
    if (chain < 4) {
      engine.schedule_in(seconds(1.0), step);
    }
  };
  engine.schedule_at(seconds(0.0), step);
  engine.run_until(seconds(10.0));
  EXPECT_EQ(chain, 4);
}

TEST(Engine, SchedulingInThePastAsserts) {
  Engine engine;
  engine.schedule_at(seconds(5.0), [] {});
  engine.run_until(seconds(5.0));
  EXPECT_THROW(engine.schedule_at(seconds(1.0), [] {}), SimulationError);
  EXPECT_THROW(engine.schedule_in(seconds(-1.0), [] {}), SimulationError);
}

TEST(Engine, StepExecutesExactlyOne) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(seconds(1.0), [&] { ++fired; });
  engine.schedule_at(seconds(2.0), [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now().seconds, 1.0);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, ClockNeverExceedsHorizonWhenCalendarDrains) {
  Engine engine;
  engine.schedule_at(seconds(1.0), [] {});
  engine.run_until(seconds(3.0));
  EXPECT_DOUBLE_EQ(engine.now().seconds, 3.0);
}

TEST(PeriodicSampler, TickCountMatchesHorizon) {
  Engine engine;
  std::vector<double> ticks;
  schedule_periodic(engine, seconds(0.0), seconds(1.0), seconds(5.0),
                    [&](SimTime t) { ticks.push_back(t.seconds); });
  engine.run_until(seconds(5.0));
  EXPECT_EQ(ticks, (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(PeriodicSampler, StartBeyondHorizonDoesNothing) {
  Engine engine;
  int ticks = 0;
  schedule_periodic(engine, seconds(10.0), seconds(1.0), seconds(5.0),
                    [&](SimTime) { ++ticks; });
  engine.run_until(seconds(5.0));
  EXPECT_EQ(ticks, 0);
}

TEST(PeriodicSampler, InterleavesWithOtherEvents) {
  Engine engine;
  std::vector<std::string> log;
  schedule_periodic(engine, seconds(0.5), seconds(1.0), seconds(3.0),
                    [&](SimTime) { log.push_back("sample"); });
  engine.schedule_at(seconds(1.0), [&] { log.push_back("event"); });
  engine.run_until(seconds(3.0));
  // samples at 0.5, 1.5, 2.5 and the event at 1.0.
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "sample");
  EXPECT_EQ(log[1], "event");
  EXPECT_EQ(log[2], "sample");
}

TEST(Engine, PeakPendingTracksCalendarHighWater) {
  Engine engine;
  EXPECT_EQ(engine.peak_pending(), 0u);
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(seconds(1.0 + i), [] {});
  }
  EXPECT_EQ(engine.peak_pending(), 5u);
  engine.run_until(seconds(10.0));
  // Draining does not lower the high-water mark.
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.peak_pending(), 5u);
  // A later shallower wave does not raise it either.
  engine.schedule_at(seconds(11.0), [] {});
  EXPECT_EQ(engine.peak_pending(), 5u);
}

TEST(Engine, RunUntilReturnsEventsExecutedThisChunk) {
  Engine engine;
  for (int i = 0; i < 4; ++i) {
    engine.schedule_at(seconds(1.0 + i), [] {});
  }
  EXPECT_EQ(engine.run_until(seconds(2.0)), 2u);
  EXPECT_EQ(engine.run_until(seconds(10.0)), 2u);
  EXPECT_EQ(engine.executed(), 4u);
}

TEST(Engine, HeartbeatReportsThroughCustomFn) {
  Engine engine;
  std::vector<obs::HeartbeatStatus> beats;
  engine.set_heartbeat(1e-9, [&](const obs::HeartbeatStatus& s) {
    beats.push_back(s);
  });
  // Enough events to pass the heartbeat's clock-check stride twice.
  const auto n = 2 * obs::Heartbeat::kCheckEvery + 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    engine.schedule_at(seconds(1.0), [] {});
  }
  engine.run_until(seconds(2.0));
  ASSERT_FALSE(beats.empty());
  EXPECT_GT(beats.front().events, 0u);
  EXPECT_DOUBLE_EQ(beats.front().sim_time_sec, 1.0);
}

TEST(Engine, ExportsMetricsWhenObsEnabled) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Registry::global().reset();
  Engine engine;
  for (int i = 0; i < 3; ++i) {
    engine.schedule_at(seconds(1.0), [] {});
  }
  engine.run_until(seconds(2.0));
  const auto& registry = obs::Registry::global();
  EXPECT_EQ(registry.counters().at("sim.events_executed").value(), 3);
  EXPECT_DOUBLE_EQ(registry.gauges().at("sim.calendar_peak").max(), 3.0);
  EXPECT_DOUBLE_EQ(registry.gauges().at("sim.calendar_depth").value(), 0.0);
  EXPECT_EQ(registry.phase(obs::Phase::kRunChunk).calls, 1u);
  EXPECT_EQ(registry.phase(obs::Phase::kEventDispatch).calls, 3u);
  obs::Registry::global().reset();
  obs::set_enabled(was_enabled);
}

// Reference calendar: a plain binary min-heap over (t, id). The ladder
// queue's contract is that its pop sequence is bit-identical to this.
class ReferenceHeap {
 public:
  void push(SimTime t, EventId id) { heap_.push({t.seconds, id}); }
  std::pair<double, EventId> pop_min() {
    auto top = heap_.top();
    heap_.pop();
    return top;
  }
  bool empty() const { return heap_.empty(); }

 private:
  using Key = std::pair<double, EventId>;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap_;
};

TEST(LadderQueue, MatchesReferenceHeapUnderRandomChurn) {
  // Random interleaving of pushes and pops, with timestamps drawn from a
  // coarse grid so same-timestamp ties are common. Ids are allocated
  // monotonically like the engine does, and pushed times never precede
  // the last pop (the engine never schedules into the past).
  Rng rng(101);
  LadderQueue ladder;
  ReferenceHeap reference;
  EventId next_id = 0;
  double now = 0.0;
  std::size_t pops = 0;
  for (int step = 0; step < 20'000; ++step) {
    const bool push =
        ladder.empty() || rng.bernoulli(0.55) || reference.empty();
    if (push) {
      const double t =
          now + static_cast<double>(rng.uniform_int(0, 40)) * 0.25;
      const EventId id = next_id++;
      ladder.push(seconds(t), id, [] {});
      reference.push(seconds(t), id);
    } else {
      ASSERT_EQ(ladder.empty(), reference.empty());
      const auto expected = reference.pop_min();
      EXPECT_DOUBLE_EQ(ladder.min_time().seconds, expected.first);
      const LadderQueue::Entry got = ladder.pop_min();
      ASSERT_DOUBLE_EQ(got.t.seconds, expected.first);
      ASSERT_EQ(got.id, expected.second);
      now = got.t.seconds;
      ++pops;
    }
  }
  while (!reference.empty()) {
    const auto expected = reference.pop_min();
    const LadderQueue::Entry got = ladder.pop_min();
    ASSERT_DOUBLE_EQ(got.t.seconds, expected.first);
    ASSERT_EQ(got.id, expected.second);
    ++pops;
  }
  EXPECT_TRUE(ladder.empty());
  EXPECT_EQ(pops, static_cast<std::size_t>(next_id));
}

TEST(LadderQueue, SameTimestampPopsInIdOrderAcrossTiers) {
  // Schedule many events at one timestamp with interleaved pops, so the
  // tie cohort is split between the bottom tier and the far spill; the
  // pop order must still be ascending id.
  LadderQueue q;
  std::vector<EventId> order;
  for (EventId id = 0; id < 300; ++id) {
    q.push(seconds(5.0), id, [] {});
    if (id % 7 == 6) {
      order.push_back(q.pop_min().id);
    }
  }
  while (!q.empty()) {
    order.push_back(q.pop_min().id);
  }
  ASSERT_EQ(order.size(), 300u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Engine, MoveOnlyCallbackFires) {
  // EventFn is move-only capable: the calendar must move callbacks out
  // on pop, never copy them. A unique_ptr capture fails to compile (and
  // fails at runtime) under any copying implementation.
  Engine engine;
  int observed = 0;
  auto payload = std::make_unique<int>(42);
  engine.schedule_at(seconds(1.0),
                     [&observed, p = std::move(payload)] { observed = *p; });
  engine.run_until(seconds(2.0));
  EXPECT_EQ(observed, 42);
}

TEST(PeriodicSampler, HorizonNotMultipleOfIntervalStopsEarly) {
  Engine engine;
  std::vector<double> ticks;
  schedule_periodic(engine, seconds(0.0), seconds(2.0), seconds(5.0),
                    [&](SimTime t) { ticks.push_back(t.seconds); });
  engine.run_until(seconds(5.0));
  EXPECT_EQ(ticks, (std::vector<double>{0.0, 2.0, 4.0}));
}

TEST(PeriodicSampler, RejectsNonPositiveInterval) {
  Engine engine;
  EXPECT_THROW(schedule_periodic(engine, seconds(0.0), seconds(0.0),
                                 seconds(1.0), [](SimTime) {}),
               ConfigError);
}

}  // namespace
}  // namespace basrpt::sim
