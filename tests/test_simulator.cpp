// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/assert.hpp"
#include "sim/simulator.hpp"
#include "typed_recorder.hpp"

namespace mango::sim {
namespace {

using test::Recorder;

TEST(Simulator, StartsAtTimeZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(300, r.id(3));
  sim.at_typed(100, r.id(1));
  sim.at_typed(200, r.id(2));
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
}

TEST(Simulator, SimultaneousEventsDispatchFifo) {
  Simulator sim;
  Recorder r(sim);
  for (int i = 0; i < 10; ++i) sim.at_typed(500, r.id(i));
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.order[static_cast<size_t>(i)], i);
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator sim;
  Recorder r(sim);
  Time fired_at = 0;
  sim.at_typed(1000, r.action([&] {
    sim.at_typed(sim.now() + 250, r.action([&] { fired_at = sim.now(); }));
  }));
  sim.run();
  EXPECT_EQ(fired_at, 1250u);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  Recorder r(sim);
  int count = 0;
  TypedEvent chain{};
  chain = r.action([&] {
    if (++count < 100) sim.at_typed(sim.now() + 10, chain);
  });
  sim.at_typed(sim.now() + 10, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(100, r.id(0));
  sim.at_typed(200, r.id(0));
  sim.at_typed(300, r.id(0));
  const auto n = sim.run_until(250);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(r.order.size(), 2u);
  EXPECT_EQ(sim.now(), 250u);  // clock advances to the boundary
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(r.order.size(), 3u);
}

TEST(Simulator, RunUntilIncludesEventsAtTheBoundary) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(250, r.id(0));
  sim.run_until(250);
  EXPECT_EQ(r.order.size(), 1u);
}

TEST(Simulator, SchedulingInThePastIsAModelError) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(100, r.id(0));
  sim.step();
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_THROW(sim.at_typed(50, r.id(0)), ModelError);
  EXPECT_THROW(sim.admit_typed(EventKey{50, 0}, r.id(0)), ModelError);
  // A key born after the instant it fires at is not causal.
  EXPECT_THROW(sim.admit_typed(EventKey{200, 300}, r.id(0)), ModelError);
  EXPECT_TRUE(sim.idle());
}

// A kernel with no registered dispatcher rejects every schedule as a
// model error — it never reaches dispatch with a null switch — and
// stays usable once a dispatcher is registered.
TEST(Simulator, SchedulingWithoutADispatcherIsAModelError) {
  Simulator sim;
  TypedEvent ev{};
  ev.op = 1;
  EXPECT_THROW(sim.at_typed(10, ev), ModelError);
  EXPECT_THROW(sim.at_typed(sim.now() + 10, ev), ModelError);
  EXPECT_THROW(sim.admit_typed(EventKey{10, 0}, ev), ModelError);
  EXPECT_TRUE(sim.idle());
  Recorder r(sim);
  sim.at_typed(10, r.id(1));
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1}));
}

// MANGO_ASSERT's contract: a passing check never evaluates its message
// (the failure path, message included, is out of line), and a failing
// one throws ModelError with the exact text
// "invariant violated: <msg> [<cond>] at <file>:<line>".
TEST(ModelAssert, MessageIsEvaluatedOnlyOnFailureAndKeepsItsText) {
  int evaluated = 0;
  const auto message = [&evaluated](int v) {
    ++evaluated;
    return "value " + std::to_string(v);
  };
  const int v = 7;
  for (int i = 0; i < 3; ++i) MANGO_ASSERT(v == 7, message(v));
  EXPECT_EQ(evaluated, 0);

  std::string what;
  int line = 0;
  try {
    line = __LINE__ + 1;
    MANGO_ASSERT(v < 3, message(v));
  } catch (const ModelError& e) {
    what = e.what();
  }
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(what, "invariant violated: value 7 [v < 3] at " __FILE__ ":" +
                      std::to_string(line));
}

TEST(Simulator, ConflictingDispatchersAreAModelError) {
  Simulator sim;
  Recorder r(sim);
  EXPECT_THROW(sim.set_typed_dispatcher([](TypedEvent&) {}), ModelError);
  // Each kernel owns its dispatcher: another kernel may register another.
  Simulator other;
  other.set_typed_dispatcher([](TypedEvent&) {});
}

TEST(Simulator, CountsDispatchedEvents) {
  Simulator sim;
  Recorder r(sim);
  for (int i = 0; i < 7; ++i) sim.at_typed(static_cast<Time>(i), r.id(i));
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 7u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(100, r.action([&] {
    r.order.push_back(1);
    sim.at_typed(sim.now() + 0, r.id(2));
  }));
  sim.at_typed(100, r.id(3));
  sim.run();
  // The zero-delay event was enqueued after the second t=100 event.
  EXPECT_EQ(r.order, (std::vector<int>{1, 3, 2}));
}

TEST(TimeHelpers, LiteralsAndConversions) {
  EXPECT_EQ(1_ns, 1000u);
  EXPECT_EQ(2_us, 2000000u);
  EXPECT_EQ(1_ms, 1000000000u);
  EXPECT_DOUBLE_EQ(to_ns(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_us(2500000), 2.5);
}

TEST(TimeHelpers, FrequencyConversions) {
  // 1942 ps -> ~515 MHz (the paper's worst-case port speed).
  EXPECT_NEAR(period_to_mhz(1942), 514.9, 0.1);
  EXPECT_NEAR(period_to_mhz(1258), 794.9, 0.1);
  EXPECT_EQ(mhz_to_period(500.0), 2000u);
  EXPECT_EQ(period_to_mhz(0), 0.0);
}

TEST(TimeHelpers, FormatTime) {
  EXPECT_EQ(format_time(500), "500 ps");
  EXPECT_EQ(format_time(1500), "1.500 ns");
  EXPECT_EQ(format_time(2500000), "2.500 us");
}

}  // namespace
}  // namespace mango::sim
