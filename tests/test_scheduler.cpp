// Delay-lane scheduler coverage: ordering semantics the NoC model
// depends on, lane/heap mechanics, and the kernel's one dispatch-order
// reference — a sorted (time, birth, seq) oracle that checks randomized
// workloads dispatch by dispatch
// (RunBeforeDispatchesTheSortedPrefixBelowEachBound).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/assert.hpp"
#include "sim/callback.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "typed_recorder.hpp"

namespace mango::sim {
namespace {

using test::Recorder;

constexpr std::size_t kLanes = Simulator::kLanes;
constexpr Time kLaneTimeEnd = Simulator::kLaneTimeEnd;
// Far enough that only a handful of delays are this long: timeouts and
// traffic interarrivals.
constexpr Time kFar = 3000000;

TEST(Scheduler, SameTimestampDispatchesInInsertionOrder) {
  Simulator sim;
  Recorder r(sim);
  // Interleave three timestamps out of time order, with a later
  // insertion at two of them.
  sim.at_typed(900, r.id(3));
  sim.at_typed(100, r.id(1));
  sim.at_typed(700, r.id(2));
  sim.at_typed(900, r.id(4));  // same time, later insertion
  sim.at_typed(700, r.id(5));
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 5, 3, 4}));
}

TEST(Scheduler, HeapAndLaneEventsInterleaveByTime) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(kFar, r.id(2));      // first sighting of kFar: the heap
  sim.at_typed(500, r.id(1));       // first sighting of 500: the heap
  sim.at_typed(2 * kFar, r.id(4));  // the heap
  sim.at_typed(kFar, r.id(3));      // second sighting: binds a lane
  EXPECT_EQ(sim.lane_of(kFar), 0);
  EXPECT_EQ(sim.lane_of(500), -1);
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 2 * kFar);
}

// A delay's first schedule takes the heap and its second binds a lane,
// so both hold an event at one (time, birth); seq decides between them.
TEST(Scheduler, OneDelaySplitAcrossHeapAndLaneTiesBreakBySeq) {
  Simulator sim;
  Recorder r(sim);
  for (int i = 0; i < 8; ++i) {
    sim.at_typed(sim.now() + kFar, r.id(i));
    EXPECT_EQ(sim.lane_of(kFar), i == 0 ? -1 : 0) << i;
  }
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Scheduler, AdmittedTiesDispatchByBirthThenSeq) {
  // admit_typed() carries an explicit birth, and the heap must order by
  // the full (time, birth, seq) key — not raw insertion order. Births
  // are deliberately inserted out of order, with one same-birth pair
  // left to the seq tie-break.
  Simulator sim;
  Recorder r(sim);
  sim.admit_typed(EventKey{kFar, 700}, r.id(3));
  sim.admit_typed(EventKey{kFar, 100}, r.id(1));
  sim.admit_typed(EventKey{kFar, 700}, r.id(4));  // seq tie
  sim.admit_typed(EventKey{kFar, 300}, r.id(2));
  // An earlier timestamp beats every later-time event regardless of its
  // birth being the largest of the batch.
  sim.admit_typed(EventKey{kFar - 512, 900}, r.id(0));
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3, 4}));

  // Same shape with the clock advanced close to the ties and an organic
  // event scheduled just ahead of them.
  Simulator sim2;
  Recorder r2(sim2);
  sim2.admit_typed(EventKey{kFar, 500}, r2.id(2));
  sim2.admit_typed(EventKey{kFar, 200}, r2.id(1));
  sim2.run_until(kFar - 1000);
  sim2.at_typed(sim2.now() + 50, r2.id(0));
  sim2.run();
  EXPECT_EQ(r2.order, (std::vector<int>{0, 1, 2}));
}

// at_typed, emplace_at and admit_typed draw their (time, birth, seq)
// keys from one sequence, whatever the record does when it fires.
TEST(Scheduler, RecordsAndActionsAtOneTimestampKeepInsertionOrder) {
  for (const Time t : {Time{700}, kFar}) {
    Simulator sim;
    Recorder r(sim);
    sim.at_typed(t, r.id(1));
    sim.at_typed(t, r.action([&] { r.order.push_back(2); }));
    sim.at_typed(t, r.id(3));
    sim.at_typed(t, r.action([&] { r.order.push_back(4); }));
    sim.emplace_at(t) = r.id(5);
    sim.at_typed(t - 1, r.id(0));
    sim.run();
    EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3, 4, 5})) << "t=" << t;
  }
}

TEST(Scheduler, AdmitTypedOrdersByBirthThenSeq) {
  for (const Time t : {Time{700}, kFar}) {
    Simulator sim;
    Recorder r(sim);
    sim.admit_typed(EventKey{t, 500}, r.id(4));
    sim.admit_typed(EventKey{t, 200}, r.id(2));
    sim.admit_typed(EventKey{t, 500}, r.id(5));  // seq tie with 4
    sim.admit_typed(EventKey{t, 100}, r.id(1));
    sim.admit_typed(EventKey{t, 200}, r.id(3));  // seq tie with 2
    sim.at_typed(t, r.id(0));          // birth 0 = now()
    sim.run();
    EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3, 4, 5})) << "t=" << t;
  }
}

// The lanes, their min-tree and the delay map are a few kilobytes; slots
// live in pooled chunks off the object.
static_assert(sizeof(Simulator) < 8192, "no per-kernel calendar array");

TEST(Scheduler, SameTimeKeysTakeHeadMiddleAndTailPlacesAcrossRefills) {
  // All at t = 700. Admitted births place each record before, between
  // and after the organic events there, including after the queue has
  // been popped empty and refilled and while it is partly popped.
  Simulator sim;
  Recorder r(sim);
  const Time t = 700;
  sim.run_until(100);
  sim.at_typed(t, r.id(50));          // birth 100: the first event
  sim.admit_typed(EventKey{t, 10}, r.id(10));
  sim.admit_typed(EventKey{t, 60}, r.id(30));
  sim.admit_typed(EventKey{t, 100}, r.id(60));  // ties 50's key, later seq
  sim.admit_typed(EventKey{t, 30}, r.id(20));
  sim.admit_typed(EventKey{t, 80}, r.id(40));
  sim.admit_typed(EventKey{t, 200}, r.id(80));
  sim.admit_typed(EventKey{t, 150}, r.id(70));
  sim.admit_typed(EventKey{t, 5}, r.id(0));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(sim.step());
  EXPECT_EQ(r.order, (std::vector<int>{0, 10, 20}));
  sim.admit_typed(EventKey{t, 0}, r.id(25));
  sim.admit_typed(EventKey{t, 90}, r.id(45));
  sim.admit_typed(EventKey{t, 300}, r.id(90));
  sim.run_until(t);
  EXPECT_EQ(r.order,
            (std::vector<int>{0, 10, 20, 25, 30, 40, 45, 50, 60, 70, 80, 90}));
  ASSERT_TRUE(sim.idle());

  // Refill at the same time and again out of order.
  r.order.clear();
  sim.at_typed(t, r.id(3));           // birth 700
  sim.admit_typed(EventKey{t, 400}, r.id(1));
  sim.admit_typed(EventKey{t, 700}, r.id(4));
  sim.admit_typed(EventKey{t, 500}, r.id(2));
  sim.admit_typed(EventKey{t, 100}, r.id(0));
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, FarEventEarlierThanALaterNearScheduleStillWins) {
  // An event scheduled far ahead must still dispatch before a *later*
  // event that a handler scheduled with a short delay as the clock
  // approached it.
  Simulator sim;
  Recorder r(sim);
  const Time x = 10 + 3 * kFar;
  sim.at_typed(10, r.action([&] {
    sim.at_typed(x, r.id(2));
    sim.at_typed(x - kFar / 2, r.action([&] {
      sim.at_typed(x + 100, r.id(3));
      r.order.push_back(1);
    }));
  }));
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, RunUntilBoundaryIsInclusive) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(100, r.id(0));
  sim.at_typed(kFar, r.id(0));
  sim.at_typed(kFar + 1, r.id(0));
  // Stop between the first event and the far ones.
  EXPECT_EQ(sim.run_until(kFar - 1), 1u);
  EXPECT_EQ(r.order.size(), 1u);
  EXPECT_EQ(sim.now(), kFar - 1);
  // Boundary inclusive: exactly at the far event's time.
  EXPECT_EQ(sim.run_until(kFar), 1u);
  EXPECT_EQ(r.order.size(), 2u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(r.order.size(), 3u);
}

TEST(Scheduler, SchedulingAfterAnIdleRunUntilStartsFromTheParkedClock) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(100, r.id(0));
  sim.run();
  // Park the clock far ahead, then schedule near events again: their
  // lanes' slots sit after the drained ones.
  sim.run_until(100 * kFar);
  EXPECT_EQ(sim.now(), 100 * kFar);
  sim.at_typed(sim.now() + 500, r.id(0));
  sim.at_typed(sim.now() + 200, r.id(0));
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(r.order.size(), 3u);
  EXPECT_EQ(sim.now(), 100 * kFar + 500);
}

TEST(Scheduler, PeriodicEventCyclesLaneChunksThroughThePool) {
  // A periodic event re-arms itself through one lane 20,000 times, so
  // the lane drains and refills its chunks hundreds of times; each
  // dispatch must see monotonically advancing time, and the pool must
  // not grow past a few chunks.
  Simulator sim;
  Recorder r(sim);
  std::uint64_t count = 0;
  Time last = 0;
  bool monotonic = true;
  constexpr std::uint64_t kTicks = 20000;
  TypedEvent tick{};
  tick = r.action([&] {
    if (sim.now() < last) monotonic = false;
    last = sim.now();
    if (++count < kTicks) sim.at_typed(sim.now() + 1300, tick);
  });
  sim.at_typed(sim.now() + 1300, tick);
  sim.run();
  EXPECT_EQ(count, kTicks);
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.now(), 1300 * kTicks);
  EXPECT_GE(sim.lane_of(1300), 0);
  EXPECT_LE(sim.lane_slots(), 3 * 32u);
}

TEST(Scheduler, InsertBelowADeclinedEventStillDispatchesInOrder) {
  // run_until declines a pending event; a later schedule that lands
  // before it must dispatch first.
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(100, r.id(1));
  sim.at_typed(8000, r.id(3));
  EXPECT_EQ(sim.run_until(500), 1u);  // dispatches t=100, declines 8000
  sim.at_typed(600, r.id(2));
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 8000u);
}

TEST(Scheduler, FarInsertAfterADeclinedEventDoesNotDispatchEarly) {
  // run_until() declines the first event after a peek at it; a far
  // insert past it and then a near insert before it must each dispatch
  // at their own time, with the clock never moving backwards.
  Simulator sim;
  Recorder r(sim);
  const Time ahead = kFar / 2;
  const Time far = 10 + kFar + kFar / 4;
  const Time near = 1000;
  sim.at_typed(ahead, r.id(2));
  EXPECT_EQ(sim.run_until(10), 0u);  // peeks `ahead`, declines it
  sim.at_typed(far, r.id(3));
  sim.at_typed(near, r.id(1));
  std::vector<Time> times;
  while (sim.step()) times.push_back(sim.now());
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<Time>{near, ahead, far}));
}

TEST(Scheduler, FarEventOlderThanALaterNearScheduleWinsUnderPeeks) {
  // A far event scheduled before a nearer handler schedules an event
  // after it, with next_event_key() peeked before every step.
  Simulator sim;
  Recorder r(sim);
  const Time x = 10 + 3 * kFar;
  const Time y = x - kFar / 2;
  sim.at_typed(10, r.action([&] {
    sim.at_typed(x, r.id(2));
    sim.at_typed(y, r.action([&] {
      sim.at_typed(x + 100, r.id(3));
      r.order.push_back(1);
    }));
  }));
  // Drain through y, peeking each step.
  while (sim.next_event_key().time <= y) sim.step();
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, NextEventKeySeesBothLanesAndHeap) {
  Simulator sim;
  Recorder r(sim);
  EXPECT_EQ(sim.next_event_key().time, kTimeNever);
  sim.at_typed(kFar, r.id(0));  // heap
  EXPECT_EQ(sim.next_event_key().time, kFar);
  sim.at_typed(sim.now() + 300, r.id(0));  // heap (first sighting)
  sim.at_typed(sim.now() + 300, r.id(0));  // lane
  ASSERT_GE(sim.lane_of(300), 0);
  EXPECT_EQ(sim.next_event_key().time, 300u);
  sim.step();  // the heap's 300
  EXPECT_EQ(sim.next_event_key().time, 300u);
  sim.step();  // the lane's 300
  EXPECT_EQ(sim.next_event_key().time, kFar);
  sim.admit_typed(EventKey{500, 20}, r.id(0));
  EXPECT_EQ(sim.next_event_key(), (EventKey{500, 20}));
}

TEST(Scheduler, RecordReachesTheDispatcherByteForByte) {
  // The slot is the record: every field and payload byte scheduled is
  // the one dispatched, through the heap and through a lane.
  Simulator sim;
  static TypedEvent seen{};
  sim.set_typed_dispatcher([](TypedEvent& ev) { seen = ev; });
  TypedEvent ev{};
  ev.op = 7;
  ev.a = 1;
  ev.b = 2;
  ev.c = 3;
  ev.d = 0xDEADBEEF;
  ev.p0 = &ev;
  ev.p1 = &sim;
  for (std::size_t i = 0; i < sizeof ev.payload; ++i) {
    ev.payload[i] = static_cast<unsigned char>(i + 1);
  }
  for (int i = 0; i < 2; ++i) {
    sim.at_typed(sim.now() + kFar, ev);  // the heap, then a lane
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(std::memcmp(&seen, &ev, sizeof ev), 0) << i;
  }
  EXPECT_GE(sim.lane_of(kFar), 0);
  // emplace_at() hands out a zeroed record.
  sim.emplace_at(sim.now() + 1).op = 9;
  ASSERT_TRUE(sim.step());
  TypedEvent zero{};
  zero.op = 9;
  EXPECT_EQ(std::memcmp(&seen, &zero, sizeof zero), 0);
}

TEST(Scheduler, AOneOffDelayNeverBindsALane) {
  Simulator sim;
  Recorder r(sim);
  for (Time d = 1000; d < 1000 + 4 * kLanes; ++d) {
    sim.at_typed(sim.now() + d, r.id(0));
    EXPECT_EQ(sim.lane_of(d), -1) << d;
  }
  sim.run();
  EXPECT_EQ(sim.lane_slots(), 0u);
}

TEST(Scheduler, OnlyAnEmptyLaneIsEvictedAndRebound) {
  Simulator sim;
  Recorder r(sim);
  // Bind every lane, each with an event pending.
  for (Time d = 100; d < 100 + kLanes; ++d) {
    sim.at_typed(sim.now() + d, r.id(0));
    sim.at_typed(sim.now() + d, r.id(0));
    ASSERT_GE(sim.lane_of(d), 0) << d;
  }
  // A new delay finds no free lane, however often it comes.
  for (int i = 0; i < 3; ++i) sim.at_typed(sim.now() + 5000, r.id(1));
  EXPECT_EQ(sim.lane_of(5000), -1);
  // Drain the shortest delay's lane; the next sighting takes it.
  const int lane = sim.lane_of(100);
  ASSERT_EQ(sim.run_until(100), 2u);
  sim.at_typed(sim.now() + 5000, r.id(2));
  EXPECT_EQ(sim.lane_of(5000), lane);
  EXPECT_EQ(sim.lane_of(100), -1);
  for (Time d = 101; d < 100 + kLanes; ++d) EXPECT_GE(sim.lane_of(d), 0);
  sim.run();
  EXPECT_EQ(r.order.back(), 2);
  EXPECT_TRUE(sim.idle());
}

/// Binds `d` on `sim` (two sightings at one instant); returns its lane,
/// or -1 when it stays unbound.
int bind_delay(Simulator& sim, Recorder& r, Time d) {
  sim.at_typed(sim.now() + d, r.id(-1));
  sim.at_typed(sim.now() + d, r.id(-1));
  return sim.lane_of(d);
}

TEST(Scheduler, ADelayWithNoMapRoomEvictsNoLane) {
  // A delay can live at two delay -> lane map entries. Find delays
  // `bound` (fewer than kLanes) and `c` such that, with `bound` bound,
  // both of c's entries are taken: c then stays unbound though a lane
  // is free. Random delays, so that some two of `bound` soon share c's
  // entries; a bound delay is replaced in turn once kLanes - 1 are held.
  Rng rng(1);
  std::vector<Time> bound;
  Time c = 0;
  for (std::size_t k = 0; c == 0; ++k) {
    ASSERT_LT(k, 100000u) << "no map collision found";
    const Time d = 1000 + rng.next_below(1000000);
    if (std::find(bound.begin(), bound.end(), d) != bound.end()) continue;
    Simulator probe;
    Recorder pr(probe);
    for (const Time b : bound) ASSERT_GE(bind_delay(probe, pr, b), 0);
    if (bind_delay(probe, pr, d) < 0) {
      c = d;
    } else if (bound.size() + 1 < kLanes) {
      bound.push_back(d);
    } else {
      bound[k % bound.size()] = d;
    }
  }
  // Bind `bound`, then fillers until every lane is bound, and leave the
  // first filler's lane the one appended to longest ago: the eviction
  // candidate. Neither of c's map entries is a filler's.
  Simulator sim;
  Recorder r(sim);
  for (const Time b : bound) ASSERT_GE(bind_delay(sim, r, b), 0);
  std::vector<Time> fillers;
  for (Time d = 5000000; bound.size() + fillers.size() < kLanes; ++d) {
    if (bind_delay(sim, r, d) >= 0) fillers.push_back(d);
  }
  std::vector<Time> delays = bound;
  delays.insert(delays.end(), fillers.begin() + 1, fillers.end());
  for (const Time d : delays) sim.at_typed(sim.now() + d, r.id(-1));
  delays.push_back(fillers.front());
  sim.run();
  std::map<Time, int> lanes;
  for (const Time d : delays) lanes[d] = sim.lane_of(d);
  ASSERT_EQ(lanes.size(), kLanes);

  r.order.clear();
  for (int i = 0; i < 4; ++i) sim.at_typed(sim.now() + c, r.id(i));
  EXPECT_EQ(sim.lane_of(c), -1);
  for (const auto& [d, lane] : lanes) EXPECT_EQ(sim.lane_of(d), lane) << d;
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3}));
}

/// A kernel whose op-1 records, when they fire, schedule kBurst records
/// with the same delay into the lane they fire from, then compare their
/// own record with a copy taken before.
struct Burst {
  static constexpr std::uint32_t kBurst = 300;
  Simulator sim;
  std::size_t grew = 0;  // lane slots added inside the handlers
  bool intact = true;
  std::vector<std::uint32_t> fired;
  Burst() { sim.set_typed_dispatcher(&Burst::fire); }
  void schedule(Time delay, std::uint8_t op, std::uint32_t d) {
    TypedEvent& ev = sim.emplace_at(sim.now() + delay);
    ev.op = op;
    ev.p0 = this;
    ev.d = d;
  }
  static void fire(TypedEvent& ev) {
    auto* b = static_cast<Burst*>(ev.p0);
    b->fired.push_back(ev.d);
    if (ev.op != 1) return;
    const TypedEvent before = ev;
    const std::size_t slots = b->sim.lane_slots();
    for (std::uint32_t i = 0; i < kBurst; ++i) b->schedule(40, 2, ev.d);
    b->grew += b->sim.lane_slots() - slots;
    b->intact = b->intact && std::memcmp(&before, &ev, sizeof ev) == 0;
  }
};

TEST(Scheduler, LaneStorageGrowsInsideAHandlerWithoutMovingItsRecord) {
  // Each record being dispatched lives in a lane slot while its handler
  // appends hundreds of records to that same lane, which takes fresh
  // chunks; the record must stay where it is and read the same. 64
  // bursts in a row put one at every slot position of a chunk, the last
  // one (whose pop drains the chunk) included.
  constexpr std::uint32_t kBursts = 64;
  Burst b;
  b.schedule(40, 2, 0);
  b.schedule(40, 2, 1);  // 40 binds a lane
  const int lane = b.sim.lane_of(40);
  ASSERT_GE(lane, 0);
  for (std::uint32_t i = 0; i < kBursts; ++i) b.schedule(40, 1, 2 + i);
  b.sim.run();
  EXPECT_GT(b.grew, 0u);
  EXPECT_TRUE(b.intact);
  EXPECT_EQ(b.sim.lane_of(40), lane);
  ASSERT_EQ(b.fired.size(), 2 + kBursts + kBursts * Burst::kBurst);
  for (std::uint32_t i = 0; i < b.fired.size(); ++i) {
    const std::uint32_t want =
        i < 2 + kBursts ? i : 2 + (i - 2 - kBursts) / Burst::kBurst;
    ASSERT_EQ(b.fired[i], want) << i;
  }
}

TEST(Scheduler, RunLoopReentryIsAModelError) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(10, r.action([&] { sim.run(); }));
  sim.at_typed(20, r.id(1));
  EXPECT_THROW(sim.run(), ModelError);
  // The kernel stays usable: the event that threw is gone, the rest runs.
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(r.order, (std::vector<int>{1}));
}

TEST(Scheduler, EventsAtTheLaneTimeLimitTakeTheHeapInOrder) {
  // Lane keys pack the time; from kLaneTimeEnd on, a delay that has a
  // lane still takes the heap, and the two stay in one order.
  constexpr Time kEnd = kLaneTimeEnd;
  Simulator sim;
  Recorder r(sim);
  sim.run_until(kEnd - 1000);
  for (const Time d : {Time{59}, Time{60}}) {
    sim.at_typed(sim.now() + d, r.id(-1));
    sim.at_typed(sim.now() + d, r.id(-1));
    ASSERT_GE(sim.lane_of(d), 0) << d;
  }
  sim.run_until(kEnd - 60);
  r.order.clear();
  sim.at_typed(kEnd, r.id(2));      // delay 60: the heap, though 60 has a lane
  sim.at_typed(kEnd - 1, r.id(1));  // delay 59: 59's lane
  sim.at_typed(kEnd + 1, r.id(3));
  sim.at_typed(kTimeNever, r.id(5));
  sim.admit_typed(EventKey{kTimeNever, kTimeNever}, r.id(6));
  sim.admit_typed(EventKey{kEnd, kEnd - 100}, r.id(0));
  sim.at_typed(kTimeNever - 1, r.id(4));
  EXPECT_EQ(sim.next_event_key(), (EventKey{kEnd - 1, kEnd - 60}));
  // (kTimeNever, kTimeNever) is not before run_until's bound.
  EXPECT_EQ(sim.run_until(kTimeNever), 6u);
  EXPECT_EQ(sim.next_event_key(), (EventKey{kTimeNever, kTimeNever}));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(r.order, (std::vector<int>{1, 0, 2, 3, 4, 5, 6}));
  EXPECT_EQ(sim.now(), kTimeNever);
}

// The kernel's dispatch order, stated once: events fire in (time,
// birth, seq) order, where birth is the clock at scheduling time (or the
// birth admit_typed() was given) and seq counts every schedule and
// admission (the oracle's event ids count the same way, so an id is its
// event's seq). The oracle holds every pending event in a set sorted by
// that tuple, spelled out field by field rather than through EventKey,
// and checks each dispatch against the set's minimum.
//
// RunBeforeDispatchesTheSortedPrefixBelowEachBound drives the kernel
// with a randomized storm, for each of six seeds:
//   * handlers schedule 0-2 follow-ups each, at most kFollowUpsPerRound
//     a round, until a budget of 20,000 is spent, and between run calls
//     the test schedules and admits events from outside any handler, for
//     at least 5,000 rounds; admitted births lie anywhere up to the
//     event time (before, at or after now()). The per-round cap spreads
//     the budget over most of the storm, so handler-scheduled events
//     dispatch throughout it, not only in its first few hundred rounds;
//   * delays come in classes (DelayClass): same-timestamp ties, 1-3 ps,
//     random handshake delays, one of kStageDelays recurring stage
//     delays (more than there are lanes), source periods of tens of
//     nanoseconds, far timeouts of microseconds, fresh delays used once
//     and fresh delays used twice at one instant;
//   * the test knows where each organic event went: to a lane when
//     lane_of() reports one for its delay right after the schedule and
//     its time is below kLaneTimeEnd, else to the heap. It counts the
//     lane shapes (LaneShape) the order argument rests on, and each
//     must occur for every seed: more live distinct delays than lanes;
//     one delay split between the heap and a lane, so seq decides a
//     (time, birth) tie across the two; a delay used once that never
//     binds; a lane evicted and rebound to another delay; lane storage
//     growing inside a handler that schedules into the lane it fires
//     from (which then checks its own record); an admitted record at a
//     lane head's exact (time, birth); and, after the storm, events at
//     the lane time limit;
//   * each round peeks next_event_key(), which must equal the oracle's
//     minimum, then drives one of the kernel's popping entry points: a
//     run_before() to a window {t, 0}, a pending key {t, b} or
//     {t, kTimeNever}; a run_until() segment of up to 6 us; 1-4 step()
//     calls; or, once the budget is spent, a run() that drains the
//     queue.
// Every bounded run call must dispatch exactly the oracle's prefix below
// its bound, return its length and park now() at bound.time. Each
// step() dispatches the oracle's minimum and returns false only when
// nothing is pending; run() dispatches everything. Every class, lane
// shape and entry shape must occur for every seed, and at least
// kFollowUpRoundFloor rounds must dispatch a handler-scheduled event;
// the counts are printed.
bool key_before(EventKey a, EventKey b) {
  return std::tie(a.time, a.birth) < std::tie(b.time, b.birth);
}

struct OracleEntry {
  EventKey key;
  std::uint32_t id;  // = seq
  int lane;          // the lane it went to, -1 for the heap
  bool admitted;     // by admit_typed (else organic)
  bool follow_up;    // scheduled by a handler
  bool operator<(const OracleEntry& o) const {
    return std::tie(key.time, key.birth, id) <
           std::tie(o.key.time, o.key.birth, o.id);
  }
};

enum DelayClass : std::size_t {
  kTie,        // 0: a same-timestamp tie
  kAdjacent,   // 1-3 ps
  kHandshake,  // up to 2.5 ns, drawn at random
  kStage,      // one of the seed's recurring stage delays
  kPeriod,     // 16-82 ns: a source period
  kFarTimeout, // 3-23 us
  kOnce,       // a fresh delay, used once
  kTwice,      // a fresh delay, used twice at one instant
  kDelayClasses
};
constexpr std::size_t kRandomClasses = kFarTimeout + 1;
constexpr std::array<const char*, kDelayClasses> kClassNames = {
    "tie",         "adjacent", "handshake", "stage",
    "period",      "far-timeout", "once",   "twice"};
constexpr std::size_t kStageDelays = kLanes + kLanes / 2;

enum LaneShape : std::size_t {
  kCrowded,       // more live distinct delays than lanes
  kSplitTie,      // one delay's heap and lane events tie; seq decides
  kNeverBinds,    // a delay used once took the heap
  kRebound,       // a lane evicted and rebound to another delay
  kGrewInHandler, // lane storage grew inside a handler, into its lane
  kAdmitAtHead,   // an admitted record tied a lane head's key
  kAtLimit,       // an event at the lane time limit took the heap
  kLaneShapes
};
constexpr std::array<const char*, kLaneShapes> kLaneShapeNames = {
    "crowded", "split-tie", "never-binds", "rebound",
    "grew-in-handler", "admit-at-head", "at-limit"};

enum BoundShape : std::size_t {
  kWindow,      // {t, 0}
  kPendingKey,  // a pending event's {t, b}
  kThrough,     // {t, kTimeNever}
  kSegment,     // run_until(t), t up to 6 us ahead
  kStep,        // 1-4 step() calls
  kRun,         // run(), drawn only once the budget is spent
  kBoundShapes
};
constexpr std::array<const char*, kBoundShapes> kShapeNames = {
    "window", "pending-key", "through", "segment", "step", "run"};

struct OracleRun {
  Simulator sim;
  Rng rng;
  std::set<OracleEntry> pending;  // what the kernel should still hold
  EventKey bound;                 // of the run call in progress
  bool bounded = true;            // false in step() and run()
  std::uint64_t fired = 0;
  Time last_fired = 0;            // the time of the latest dispatch
  std::string failure;            // the first dispatch off the oracle
  std::uint32_t next_id = 0;
  std::uint64_t budget = 20000;   // follow-ups handlers may still schedule
  std::uint64_t round_budget = 0;  // of those, in the current round
  std::uint64_t bursts = 0;        // handler bursts still to run
  std::uint64_t round = 0;         // the storm's current round
  std::uint64_t follow_up_rounds = 0;  // rounds that dispatched a follow-up
  std::uint64_t last_follow_up_round = ~std::uint64_t{0};
  std::array<std::uint64_t, kDelayClasses> classes{};
  std::array<std::uint64_t, kLaneShapes> lane_shapes{};
  std::array<Time, kStageDelays> stage{};
  Time fresh = 100000;  // the next fresh delay (stage, handshake and
                        // period delays stay below it)
  std::map<Time, std::uint32_t> live;  // pending organic events by delay
  std::array<Time, kLanes> lane_delay;  // each lane's latest delay

  explicit OracleRun(std::uint64_t seed) : rng(seed) {
    sim.set_typed_dispatcher([](TypedEvent& ev) {
      static_cast<OracleRun*>(ev.p0)->fire(ev);
    });
    for (Time& d : stage) d = 60 + rng.next_below(2000);
    lane_delay.fill(kTimeNever);
  }

  TypedEvent record() {
    TypedEvent ev{};
    ev.op = 1;
    ev.p0 = this;
    ev.d = next_id;
    return ev;
  }
  /// Schedules `delay` from now; returns the lane it went to, or -1.
  int schedule(Time delay, bool follow_up = false) {
    const Time t = sim.now() + delay;
    sim.at_typed(sim.now() + delay, record());
    const int lane = t < kLaneTimeEnd ? sim.lane_of(delay) : -1;
    if (lane >= 0) {
      const Time was = lane_delay[static_cast<std::size_t>(lane)];
      if (was != kTimeNever && was != delay) ++lane_shapes[kRebound];
      lane_delay[static_cast<std::size_t>(lane)] = delay;
    } else if (t >= kLaneTimeEnd && sim.lane_of(delay) >= 0) {
      ++lane_shapes[kAtLimit];
    }
    pending.insert({EventKey{t, sim.now()}, next_id++, lane, false,
                    follow_up});
    ++live[delay];
    return lane;
  }
  void admit(EventKey key) {
    sim.admit_typed(key, record());
    pending.insert({key, next_id++, -1, true, false});
  }
  /// A delay of class `c`, counted.
  Time delay(DelayClass c) {
    ++classes[c];
    switch (c) {
      case kTie: return 0;
      case kAdjacent: return 1 + rng.next_below(3);
      case kHandshake: return 4 + rng.next_below(2500);
      case kStage: return stage[rng.next_below(kStageDelays)];
      case kPeriod: return 16000 + rng.next_below(66000);
      case kFarTimeout: return 3000000 + rng.next_below(20000000);
      default: return fresh++;  // kOnce, kTwice
    }
  }
  Time random_delay() {
    return delay(static_cast<DelayClass>(rng.next_below(kRandomClasses)));
  }

  void fire(TypedEvent& ev) {
    const std::uint32_t id = ev.d;
    ++fired;
    last_fired = sim.now();
    if (pending.empty()) return note(id, "nothing is pending");
    const OracleEntry e = *pending.begin();
    pending.erase(pending.begin());
    if (!e.admitted) {
      const Time d = e.key.time - e.key.birth;
      if (--live[d] == 0) live.erase(d);
    }
    if (e.id != id || sim.now() != e.key.time) {
      note(id, "expected id " + std::to_string(e.id) + " at (" +
                   std::to_string(e.key.time) + ", " +
                   std::to_string(e.key.birth) + ")");
    } else if (bounded && !key_before(e.key, bound)) {
      note(id, "its key is not before the bound");
    }
    if (!pending.empty() && pending.begin()->key == e.key) {
      // A tie on (time, birth) between a lane and the heap.
      const OracleEntry& n = *pending.begin();
      if ((e.lane < 0) != (n.lane < 0)) {
        if (e.admitted || n.admitted) {
          ++lane_shapes[kAdmitAtHead];
        } else {
          ++lane_shapes[kSplitTie];
        }
      }
    }
    if (e.follow_up && last_follow_up_round != round) {
      last_follow_up_round = round;
      ++follow_up_rounds;
    }
    if (e.lane >= 0 && bursts > 0 && rng.next_below(64) == 0) {
      // Append a burst to the lane this record fires from, then check
      // that the record was not moved or overwritten under the handler.
      --bursts;
      const Time d = e.key.time - e.key.birth;
      const std::size_t slots = sim.lane_slots();
      for (int k = 0; k < 100; ++k) schedule(d, /*follow_up=*/true);
      if (sim.lane_slots() > slots && sim.lane_of(d) == e.lane) {
        ++lane_shapes[kGrewInHandler];
      }
      if (ev.d != id || ev.p0 != this) note(id, "its record changed");
    }
    for (std::uint64_t k = rng.next_below(3);
         k > 0 && budget > 0 && round_budget > 0;
         --k, --budget, --round_budget) {
      schedule(random_delay(), /*follow_up=*/true);
    }
  }
  void note(std::uint32_t id, const std::string& what) {
    if (failure.empty()) {
      failure = "dispatch " + std::to_string(fired) + " fired id " +
                std::to_string(id) + " at " + std::to_string(sim.now()) +
                ": " + what;
    }
  }
  /// The first pending lane event (the head of its lane), if any.
  const OracleEntry* first_lane_entry() const {
    for (const OracleEntry& e : pending) {
      if (e.lane >= 0) return &e;
    }
    return nullptr;
  }
};

TEST(Scheduler, RunBeforeDispatchesTheSortedPrefixBelowEachBound) {
  constexpr std::uint64_t kRounds = 5000;
  constexpr std::uint64_t kFollowUpsPerRound = 12;
  constexpr std::uint64_t kFollowUpRoundFloor = 2500;
  for (const std::uint64_t seed :
       {1ull, 42ull, 0xDEADBEEFull, 3ull, 17ull, 0xC0FFEEull}) {
    OracleRun o(seed);
    Rng& rng = o.rng;
    o.bursts = 40;
    std::array<std::uint64_t, kBoundShapes> shapes{};
    for (int i = 0; i < 32; ++i) o.schedule(rng.next_below(1000));
    for (; o.round < kRounds || o.budget > 0; ++o.round) {
      o.round_budget = kFollowUpsPerRound;
      const std::string where =
          "seed " + std::to_string(seed) + " round " + std::to_string(o.round);
      const Time now = o.sim.now();
      const EventKey next = o.sim.next_event_key();
      const EventKey first =
          o.pending.empty() ? EventKey{} : o.pending.begin()->key;
      ASSERT_TRUE(next.time == first.time && next.birth == first.birth)
          << where << ": next_event_key() is (" << next.time << ", "
          << next.birth << "), the oracle's first key (" << first.time
          << ", " << first.birth << ")";
      if (o.live.size() > kLanes) ++o.lane_shapes[kCrowded];

      switch (rng.next_below(4)) {
        case 0: {  // a fresh delay, used once: it never binds
          const Time d = o.delay(kOnce);
          if (o.schedule(d) < 0) ++o.lane_shapes[kNeverBinds];
          EXPECT_EQ(o.sim.lane_of(d), -1) << where;
          break;
        }
        case 1: {  // a fresh delay, twice: the heap, then a lane
          const Time d = o.delay(kTwice);
          o.schedule(d);
          o.schedule(d);
          break;
        }
        case 2:  // an admitted record at a lane head's key
          if (const OracleEntry* e = o.first_lane_entry()) o.admit(e->key);
          break;
        default:
          break;
      }
      for (std::uint64_t k = rng.next_below(4); k > 0; --k) {
        if (rng.next_below(2) == 0) {
          o.schedule(o.random_delay());
        } else {
          const Time t = now + o.random_delay();
          const Time b = rng.next_below(3) == 0 ? now : rng.next_below(t + 1);
          o.admit(EventKey{t, b});
        }
      }

      const auto shape = static_cast<BoundShape>(
          rng.next_below(o.budget > 0 ? kRun : kBoundShapes));
      ++shapes[shape];
      const std::uint64_t fired_before = o.fired;
      if (shape == kStep || shape == kRun) {
        // No bound: every dispatch is the oracle's minimum.
        o.bounded = false;
        std::uint64_t n = 0;
        if (shape == kRun) {
          n = o.sim.run();
          ASSERT_TRUE(o.pending.empty()) << where << ": run() left events";
        } else {
          for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
            const bool had = !o.pending.empty();
            ASSERT_EQ(o.sim.step(), had) << where;
            n += had;
          }
        }
        ASSERT_TRUE(o.failure.empty()) << where << ": " << o.failure;
        ASSERT_EQ(n, o.fired - fired_before) << where;
        ASSERT_EQ(o.sim.now(), n > 0 ? o.last_fired : now) << where;
        ASSERT_EQ(o.sim.pending(), o.pending.size()) << where;
        o.bounded = true;
        continue;
      }
      EventKey bound;
      if (shape == kPendingKey && !o.pending.empty()) {
        auto it = o.pending.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(
                             std::min<std::uint64_t>(o.pending.size(), 8))));
        bound = it->key;
      } else if (shape == kSegment) {
        bound = EventKey{now + 1 + rng.next_below(6000000), kTimeNever};
      } else {
        const Time t = now + rng.next_below(30000);
        bound = shape == kWindow ? EventKey{t, 0} : EventKey{t, kTimeNever};
      }
      o.bound = bound;
      const std::uint64_t n = shape == kSegment
                                  ? o.sim.run_until(bound.time)
                                  : o.sim.run_before(bound);
      ASSERT_TRUE(o.failure.empty()) << where << ": " << o.failure;
      ASSERT_EQ(n, o.fired - fired_before) << where;
      ASSERT_TRUE(o.pending.empty() ||
                  !key_before(o.pending.begin()->key, bound))
          << where << ": an event before the bound is still pending";
      ASSERT_EQ(o.sim.now(), std::max(now, bound.time)) << where;
      ASSERT_EQ(o.sim.pending(), o.pending.size()) << where;
    }
    o.bounded = false;
    o.sim.run();
    EXPECT_TRUE(o.failure.empty()) << "seed " << seed << ": " << o.failure;
    EXPECT_TRUE(o.pending.empty()) << "seed " << seed;

    // The lane time limit: bind lanes to delays that cross it from
    // kLaneTimeEnd - 3000, park the clock there, schedule those and the
    // stage delays, the last representable instant and admissions
    // around the limit, then drain step by step.
    o.bursts = 0;
    constexpr std::array<Time, 5> kCross = {2998, 2999, 3000, 3001, 3002};
    o.bound = EventKey{kLaneTimeEnd - 3000, kTimeNever};
    o.bounded = true;
    o.sim.run_until(kLaneTimeEnd - 6000);
    for (const Time d : kCross) {
      o.schedule(d);
      o.schedule(d);
    }
    o.sim.run_until(kLaneTimeEnd - 3000);
    o.bounded = false;
    for (int k = 0; k < 200; ++k) {
      o.schedule(kCross[rng.next_below(kCross.size())]);
      o.schedule(o.delay(kStage));
    }
    o.sim.at_typed(kTimeNever, o.record());
    o.pending.insert({EventKey{kTimeNever, o.sim.now()}, o.next_id++, -1,
                      false, false});
    ++o.live[kTimeNever - o.sim.now()];
    o.admit(EventKey{kTimeNever, kTimeNever});
    for (int k = 0; k < 50; ++k) {
      o.admit(EventKey{kLaneTimeEnd - 2 + rng.next_below(5),
                       kLaneTimeEnd - 3000 - rng.next_below(2)});
    }
    while (o.sim.step()) {
      ASSERT_TRUE(o.failure.empty()) << "seed " << seed << ": " << o.failure;
    }
    EXPECT_TRUE(o.failure.empty()) << "seed " << seed << ": " << o.failure;
    EXPECT_TRUE(o.pending.empty()) << "seed " << seed;
    EXPECT_EQ(o.sim.now(), kTimeNever) << "seed " << seed;
    EXPECT_EQ(o.fired, o.next_id) << "seed " << seed;
    EXPECT_EQ(o.budget, 0u) << "seed " << seed;

    std::printf("seed %llu: %llu events, %llu rounds, %llu with a follow-up;",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(o.fired),
                static_cast<unsigned long long>(o.round),
                static_cast<unsigned long long>(o.follow_up_rounds));
    EXPECT_GE(o.follow_up_rounds, kFollowUpRoundFloor) << "seed " << seed;
    for (std::size_t c = 0; c < kDelayClasses; ++c) {
      std::printf(" %s %llu", kClassNames[c],
                  static_cast<unsigned long long>(o.classes[c]));
      EXPECT_GT(o.classes[c], 0u) << "seed " << seed << " " << kClassNames[c];
    }
    std::printf(";");
    for (std::size_t s = 0; s < kLaneShapes; ++s) {
      std::printf(" %s %llu", kLaneShapeNames[s],
                  static_cast<unsigned long long>(o.lane_shapes[s]));
      EXPECT_GT(o.lane_shapes[s], 0u)
          << "seed " << seed << " " << kLaneShapeNames[s];
    }
    std::printf(";");
    for (std::size_t s = 0; s < kBoundShapes; ++s) {
      std::printf(" %s %llu", kShapeNames[s],
                  static_cast<unsigned long long>(shapes[s]));
      EXPECT_GT(shapes[s], 100u) << "seed " << seed << " " << kShapeNames[s];
    }
    std::printf("\n");
  }
}

// run_before() declines its bound right after a peek: O waits in the
// heap, a later event W is scheduled after the clock moved, and the
// peek reports O. run_before() to a bound below O must dispatch nothing
// and park the clock; the next dispatch is still the oracle's minimum,
// O, not W.
TEST(Scheduler, RunBeforeDeclinesItsBoundRightAfterAPeek) {
  OracleRun o(1);
  o.budget = 0;  // handlers schedule no follow-ups
  o.schedule(kFar + 100);  // O, id 0
  o.bound = EventKey{200, kTimeNever};
  ASSERT_EQ(o.sim.run_until(200), 0u);
  o.schedule(kFar - 1);  // W, id 1: after O
  const EventKey peek = o.sim.next_event_key();
  ASSERT_EQ(peek.time, kFar + 100);  // O's key
  ASSERT_EQ(peek.birth, 0u);

  o.bound = EventKey{kFar + 50, kTimeNever};
  ASSERT_EQ(o.sim.run_before(o.bound), 0u);
  ASSERT_EQ(o.sim.now(), kFar + 50);
  ASSERT_EQ(o.sim.pending(), 2u);

  o.bounded = false;
  ASSERT_TRUE(o.sim.step());
  ASSERT_TRUE(o.failure.empty()) << o.failure;
  EXPECT_EQ(o.sim.run(), 1u);
  EXPECT_TRUE(o.failure.empty()) << o.failure;
  EXPECT_TRUE(o.pending.empty());
}

// A bound equal to a pending lane head's key, with the heap top tied to
// it, declines both; the next dispatch is still the oracle's minimum.
TEST(Scheduler, RunBeforeDeclinesALaneHeadAndHeapTopAtItsBound) {
  OracleRun o(1);
  o.budget = 0;  // handlers schedule no follow-ups
  o.schedule(700);         // id 0: the heap (first sighting)
  o.schedule(700);         // id 1: a lane, tied with id 0
  ASSERT_GE(o.sim.lane_of(700), 0);
  o.admit(EventKey{700, 0});  // id 2: the heap, tied with both
  o.bound = EventKey{700, 0};
  ASSERT_EQ(o.sim.run_before(o.bound), 0u);
  ASSERT_EQ(o.sim.now(), 700u - 0u);
  ASSERT_EQ(o.sim.pending(), 3u);
  o.bounded = false;
  EXPECT_EQ(o.sim.run(), 3u);
  EXPECT_TRUE(o.failure.empty()) << o.failure;
  EXPECT_TRUE(o.pending.empty());
}

TEST(InlineFunctionTest, InlineCapturesDoNotAllocate) {
  struct Small {
    void* a;
    void* b;
    void* c;
    void operator()() const {}
  };
  static_assert(InlineCallback::stores_inline<Small>());
}

TEST(InlineFunctionTest, LargeCaptureSpillsToHeapAndSurvivesAMove) {
  struct Big {
    std::uint64_t words[32] = {};
  };
  static_assert(!InlineCallback::stores_inline<Big>());
  Big big;
  big.words[31] = 42;
  std::uint64_t seen = 0;
  InlineCallback a = [big, &seen] { seen += big.words[31]; };
  a();
  EXPECT_EQ(seen, 42u);
  InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(seen, 84u);
}

TEST(InlineFunctionTest, MoveTransfersTargetAndEmptiesSource) {
  int hits = 0;
  InlineCallback a = [&hits] { ++hits; };
  InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunctionTest, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(7);
  InlineFunction<int()> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 7);
}

}  // namespace
}  // namespace mango::sim
