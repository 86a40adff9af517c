#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

namespace rcast::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  Time seen = -1;
  s.at(100, [&] { seen = s.now(); });
  s.run_all();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator s;
  std::vector<Time> fired;
  s.at(50, [&] {
    s.after(25, [&] { fired.push_back(s.now()); });
  });
  s.run_all();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 75);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int count = 0;
  s.at(10, [&] { ++count; });
  s.at(20, [&] { ++count; });
  s.at(30, [&] { ++count; });
  s.run_until(20);
  EXPECT_EQ(count, 2);  // event exactly at boundary runs
  EXPECT_EQ(s.now(), 20);
  s.run_until(100);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesClockWithNoEvents) {
  Simulator s;
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  std::vector<int> order;
  s.at(1, [&] {
    order.push_back(1);
    s.at(2, [&] { order.push_back(2); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, SameTimeChainingRunsInOrder) {
  Simulator s;
  std::vector<int> order;
  s.at(5, [&] {
    order.push_back(1);
    s.at(5, [&] { order.push_back(2); });  // same timestamp, runs after
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, StepExecutesOne) {
  Simulator s;
  int count = 0;
  s.at(1, [&] { ++count; });
  s.at(2, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, CancelStopsEvent) {
  Simulator s;
  bool fired = false;
  const EventId id = s.at(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, ExecutedEventsCount) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.at(i, [] {});
  s.run_all();
  EXPECT_EQ(s.executed_events(), 5u);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator s;
  s.at(100, [] {});
  s.run_all();
  EXPECT_THROW(s.at(50, [] {}), ContractViolation);
  EXPECT_THROW(s.after(-1, [] {}), ContractViolation);
}

// The const inspection surface: a const Simulator& can ask for the next
// pending event time without perturbing the schedule.
TEST(Simulator, NextEventTimeIsConstAndNonDestructive) {
  Simulator s;
  s.at(25, [] {});
  s.at(40, [] {});
  const Simulator& cs = s;
  EXPECT_EQ(cs.next_event_time(), 25);
  EXPECT_EQ(cs.pending_events(), 2u);
  s.run_all();
  EXPECT_EQ(s.now(), 40);
}

// Handlers in a same-timestamp batch observe now() == their own timestamp,
// and a handler scheduling at now() runs within the same instant.
TEST(Simulator, BatchedDispatchKeepsNowConsistent) {
  Simulator s;
  std::vector<Time> seen;
  for (int i = 0; i < 4; ++i) {
    s.at(50, [&] { seen.push_back(s.now()); });
  }
  s.at(50, [&] {
    s.at(50, [&] { seen.push_back(s.now() + 1000); });
  });
  s.run_until(100);
  ASSERT_EQ(seen.size(), 5u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], 50);
  EXPECT_EQ(seen[4], 1050);  // ran at now()==50, inside the same instant
}

// --- Event streams: reserve_seqs / at_seq / claim (DESIGN.md §17) ----------

TEST(Simulator, AtSeqFiresAtTheReservedKey) {
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t base = sim.reserve_seqs(1);
  sim.at(10, [&] { order.push_back(2); });  // takes a later seq
  sim.at_seq(10, base, [&] { order.push_back(1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.perf_counters().events_scheduled, 2u);
  EXPECT_EQ(sim.executed_events(), 2u);
}

// A claim succeeds only from inside a run loop, for a key that precedes
// every pending event; it advances the clock and counts one executed event.
TEST(Simulator, ClaimRunsAKeyThatPrecedesTheFront) {
  Simulator sim;
  const std::uint64_t base = sim.reserve_seqs(3);
  EXPECT_FALSE(sim.claim(0, base));  // outside a run
  std::vector<int> order;
  sim.at(20, [&] { order.push_back(20); });
  sim.at(5, [&] {
    order.push_back(5);
    EXPECT_TRUE(sim.claim(10, base));
    EXPECT_EQ(sim.now(), 10);
    EXPECT_TRUE(sim.claim(20, base + 1));    // ties at 20, earlier seq
    EXPECT_FALSE(sim.claim(30, base + 2));   // the event at 20 comes first
    EXPECT_EQ(sim.now(), 20);
  });
  sim.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{5, 20}));
  EXPECT_EQ(sim.executed_events(), 4u);
  EXPECT_FALSE(sim.claim(100, base + 2));  // the run is over
}

TEST(Simulator, ClaimStopsAtRunUntilsEnd) {
  Simulator sim;
  const std::uint64_t base = sim.reserve_seqs(2);
  sim.at(5, [&] {
    EXPECT_TRUE(sim.claim(50, base));        // exactly at end: inside
    EXPECT_FALSE(sim.claim(51, base + 1));   // past end
  });
  sim.run_until(50);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(Simulator, ClaimIsRefusedInStep) {
  Simulator sim;
  const std::uint64_t base = sim.reserve_seqs(1);
  bool claimed = true;
  sim.at(5, [&] { claimed = sim.claim(6, base); });
  ASSERT_TRUE(sim.step());
  EXPECT_FALSE(claimed);
  EXPECT_EQ(sim.executed_events(), 1u);
}

// The claim that would reach the periodic wall-deadline check is refused,
// so the run loop makes every check itself.
TEST(Simulator, ClaimLeavesTheDeadlineCheckToTheRunLoop) {
  Simulator sim;
  sim.set_wall_deadline(std::chrono::steady_clock::now() +
                        std::chrono::hours(1));
  const std::uint64_t n = Simulator::kDeadlineCheckInterval + 10;
  const std::uint64_t base = sim.reserve_seqs(n);
  std::uint64_t claimed = 0;
  std::uint64_t refused_at = 0;
  sim.at(1, [&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!sim.claim(2, base + i)) {
        refused_at = sim.executed_events() + 1;
        break;
      }
      ++claimed;
    }
  });
  sim.run_until(10);
  EXPECT_EQ(refused_at, Simulator::kDeadlineCheckInterval);
  EXPECT_EQ(claimed, Simulator::kDeadlineCheckInterval - 2);
}

TEST(PeriodicTimer, FiresOnPeriod) {
  Simulator s;
  std::vector<Time> fires;
  PeriodicTimer t(s, [&] { fires.push_back(s.now()); });
  t.start(10, 5);
  s.run_until(27);
  EXPECT_EQ(fires, (std::vector<Time>{10, 15, 20, 25}));
}

TEST(PeriodicTimer, StopHalts) {
  Simulator s;
  int count = 0;
  PeriodicTimer t(s, [&] { ++count; });
  t.start(1, 1);
  s.at(5, [&] { t.stop(); });
  s.run_until(100);
  // Fires at t=1..4; the stop event at t=5 was scheduled before the timer's
  // t=5 firing, so same-time FIFO ordering cancels that firing.
  EXPECT_EQ(count, 4);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimer, CallbackMayStopTimer) {
  Simulator s;
  int count = 0;
  PeriodicTimer t(s, [&] {
    if (++count == 3) t.stop();
  });
  t.start(1, 1);
  s.run_until(100);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTimer, RestartRearms) {
  Simulator s;
  int count = 0;
  PeriodicTimer t(s, [&] { ++count; });
  t.start(1, 100);
  s.run_until(1);
  EXPECT_EQ(count, 1);
  t.start(s.now() + 1, 100);
  s.run_until(2);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTimer, DestructionCancels) {
  Simulator s;
  int count = 0;
  {
    PeriodicTimer t(s, [&] { ++count; });
    t.start(10, 10);
  }
  s.run_until(100);
  EXPECT_EQ(count, 0);
}

TEST(OneShotTimer, FiresOnce) {
  Simulator s;
  int count = 0;
  OneShotTimer t(s, [&] { ++count; });
  t.arm(10);
  EXPECT_TRUE(t.armed());
  s.run_until(100);
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(t.armed());
}

TEST(OneShotTimer, RearmResetsDeadline) {
  Simulator s;
  std::vector<Time> fires;
  OneShotTimer t(s, [&] { fires.push_back(s.now()); });
  t.arm(10);
  s.at(5, [&] { t.arm(10); });  // push deadline to 15
  s.run_until(100);
  EXPECT_EQ(fires, std::vector<Time>{15});
}

TEST(OneShotTimer, CancelPreventsFire) {
  Simulator s;
  int count = 0;
  OneShotTimer t(s, [&] { ++count; });
  t.arm(10);
  s.at(5, [&] { t.cancel(); });
  s.run_until(100);
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace rcast::sim
