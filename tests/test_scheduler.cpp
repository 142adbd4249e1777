// Calendar-queue scheduler coverage: ordering semantics the NoC model
// depends on, wheel/overflow mechanics, and the kernel's one dispatch-
// order reference — a sorted (time, birth, seq) oracle that checks
// randomized workloads dispatch by dispatch
// (RunBeforeDispatchesTheSortedPrefixBelowEachBound).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "typed_recorder.hpp"

namespace mango::sim {
namespace {

using test::Recorder;

constexpr Time kHorizon = Simulator::kHorizonPs;
// Twice the wheel horizon: an event this far from now() takes the
// overflow path.
constexpr Time kBeyondHorizon = 2 * kHorizon;

TEST(Scheduler, SameTimestampDispatchesInInsertionOrderAcrossBuckets) {
  Simulator sim;
  Recorder r(sim);
  // Interleave three timestamps out of time order, with a later
  // insertion at two of them.
  sim.at_typed(900, r.id(3));
  sim.at_typed(100, r.id(1));
  sim.at_typed(700, r.id(2));
  sim.at_typed(900, r.id(4));  // same time, later insertion
  sim.at_typed(700, r.id(5));  // sorted insert mid-bucket
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 5, 3, 4}));
}

TEST(Scheduler, OverflowEventsDispatchAfterWheelEvents) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(kBeyondHorizon, r.id(2));  // overflow path
  sim.at_typed(500, r.id(1));             // wheel path
  sim.at_typed(2 * kBeyondHorizon, r.id(3));
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 2 * kBeyondHorizon);
}

TEST(Scheduler, OverflowTieBreaksBySeqAfterMigration) {
  Simulator sim;
  Recorder r(sim);
  // All beyond the horizon at the same timestamp: the overflow heap must
  // preserve insertion order when they migrate into one bucket.
  for (int i = 0; i < 8; ++i) sim.at_typed(kBeyondHorizon, r.id(i));
  // Advance the clock to just below the ties and anchor a wheel event so
  // the ties actually take the migration path (with an empty wheel the
  // kernel pops the overflow heap directly, which would not cover it).
  sim.run_until(kBeyondHorizon - 1000);
  sim.after_typed(50, r.id(-1));
  sim.run();
  ASSERT_EQ(r.order.size(), 9u);
  EXPECT_EQ(r.order[0], -1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r.order[static_cast<size_t>(i) + 1], i);
  }
}

TEST(Scheduler, AdmittedOverflowTiesDispatchByBirthThenSeq) {
  // admit_typed() carries an explicit birth; beyond the horizon the
  // events land in the overflow heap, which must order by the full
  // (time, birth, seq) key — not raw insertion order. Births are
  // deliberately inserted out of order, with one same-birth pair left to
  // the seq tie-break.
  Simulator sim;
  Recorder r(sim);
  sim.admit_typed(EventKey{kBeyondHorizon, 700}, r.id(3));
  sim.admit_typed(EventKey{kBeyondHorizon, 100}, r.id(1));
  sim.admit_typed(EventKey{kBeyondHorizon, 700}, r.id(4));  // seq tie
  sim.admit_typed(EventKey{kBeyondHorizon, 300}, r.id(2));
  // An earlier timestamp beats every later-time event regardless of its
  // birth being the largest of the batch.
  sim.admit_typed(EventKey{kBeyondHorizon - 512, 900}, r.id(0));
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3, 4}));

  // Same shape through the migration path: advance the clock so the
  // granule enters the wheel window and the ties migrate into one bucket
  // (with an empty wheel the kernel pops the heap directly; the anchor
  // event forces the migration).
  Simulator sim2;
  Recorder r2(sim2);
  sim2.admit_typed(EventKey{kBeyondHorizon, 500}, r2.id(2));
  sim2.admit_typed(EventKey{kBeyondHorizon, 200}, r2.id(1));
  sim2.run_until(kBeyondHorizon - 1000);
  sim2.after_typed(50, r2.id(0));
  sim2.run();
  EXPECT_EQ(r2.order, (std::vector<int>{0, 1, 2}));
}

// at_typed, after_typed and admit_typed draw their (time, birth, seq)
// keys from one sequence, whatever the record does when it fires.
TEST(Scheduler, RecordsAndActionsAtOneTimestampKeepInsertionOrder) {
  // Once in a wheel bucket, once in the overflow heap.
  for (const Time t : {Time{700}, kBeyondHorizon}) {
    Simulator sim;
    Recorder r(sim);
    sim.at_typed(t, r.id(1));
    sim.at_typed(t, r.action([&] { r.order.push_back(2); }));
    sim.after_typed(t, r.id(3));
    sim.after_typed(t, r.action([&] { r.order.push_back(4); }));
    sim.at_typed(t, r.id(5));
    sim.at_typed(t - 1, r.id(0));
    sim.run();
    EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3, 4, 5})) << "t=" << t;
  }
}

TEST(Scheduler, AdmitTypedOrdersByBirthThenSeq) {
  for (const Time t : {Time{700}, kBeyondHorizon}) {
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

// A wheel bucket is one head pointer whose prev link is the tail, so the
// wheel costs one pointer a bucket.
static_assert(sizeof(Simulator) < (std::size_t{1} << 14) * 2 * sizeof(void*),
              "the wheel holds one pointer per bucket");

TEST(Scheduler, SameTimeBucketTakesHeadMiddleAndTailInsertsAcrossRefills) {
  // All at t = 700, one 1-ps bucket. Admitted births place each record
  // at the chain's head, in its middle, just before its tail and at its
  // tail, including after the bucket has been popped empty and refilled
  // and while it is partly popped.
  Simulator sim;
  Recorder r(sim);
  const Time t = 700;
  sim.run_until(100);
  sim.at_typed(t, r.id(50));          // birth 100: the first node
  sim.admit_typed(EventKey{t, 10}, r.id(10));   // head
  sim.admit_typed(EventKey{t, 60}, r.id(30));   // middle
  sim.admit_typed(EventKey{t, 100}, r.id(60));  // tail (append)
  sim.admit_typed(EventKey{t, 30}, r.id(20));   // middle
  sim.admit_typed(EventKey{t, 80}, r.id(40));   // middle
  sim.admit_typed(EventKey{t, 200}, r.id(80));  // tail (append)
  sim.admit_typed(EventKey{t, 150}, r.id(70));  // just before the tail
  sim.admit_typed(EventKey{t, 5}, r.id(0));     // head again
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(sim.step());
  EXPECT_EQ(r.order, (std::vector<int>{0, 10, 20}));
  sim.admit_typed(EventKey{t, 0}, r.id(25));    // head of a part-popped bucket
  sim.admit_typed(EventKey{t, 90}, r.id(45));   // middle
  sim.admit_typed(EventKey{t, 300}, r.id(90));  // tail
  sim.run_until(t);
  EXPECT_EQ(r.order,
            (std::vector<int>{0, 10, 20, 25, 30, 40, 45, 50, 60, 70, 80, 90}));
  ASSERT_TRUE(sim.idle());

  // Refill the emptied bucket at the same time and again out of order.
  r.order.clear();
  sim.at_typed(t, r.id(3));           // birth 700: a lone node
  sim.admit_typed(EventKey{t, 400}, r.id(1));   // head
  sim.admit_typed(EventKey{t, 700}, r.id(4));   // tail (append)
  sim.admit_typed(EventKey{t, 500}, r.id(2));   // middle
  sim.admit_typed(EventKey{t, 100}, r.id(0));   // head
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, OverflowEventEarlierThanLaterWheelInsertStillWins) {
  // Regression shape: an overflow event whose granule enters the wheel
  // window only after the cursor advances must still dispatch before a
  // *later* event that was inserted directly into the wheel.
  Simulator sim;
  Recorder r(sim);
  const Time x = 10 + 3 * kHorizon;
  sim.at_typed(10, r.action([&] {
    // From t=10 the horizon ends at 10 + kHorizon, so x is overflow.
    sim.at_typed(x, r.id(2));
    // Half a horizon before x, its granule is inside the window but the
    // event is still in the overflow heap (migration happens at pop
    // time); insert a later event straight into the wheel.
    sim.at_typed(x - kHorizon / 2, r.action([&] {
      sim.at_typed(x + 100, r.id(3));
      r.order.push_back(1);
    }));
  }));
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, RunUntilBoundaryWithOverflowEvents) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(100, r.id(0));
  sim.at_typed(kBeyondHorizon, r.id(0));
  sim.at_typed(kBeyondHorizon + 1, r.id(0));
  // Stop between the wheel event and the overflow events.
  EXPECT_EQ(sim.run_until(kBeyondHorizon - 1), 1u);
  EXPECT_EQ(r.order.size(), 1u);
  EXPECT_EQ(sim.now(), kBeyondHorizon - 1);
  // Boundary inclusive: exactly at the overflow event's time.
  EXPECT_EQ(sim.run_until(kBeyondHorizon), 1u);
  EXPECT_EQ(r.order.size(), 2u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(r.order.size(), 3u);
}

TEST(Scheduler, SchedulingAfterIdleRunUntilReanchorsTheWheel) {
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(100, r.id(0));
  sim.run();
  // Advance the clock far past the (stale) wheel cursor, then schedule
  // near events again: they must land and dispatch normally.
  sim.run_until(100 * kBeyondHorizon);
  EXPECT_EQ(sim.now(), 100 * kBeyondHorizon);
  sim.after_typed(500, r.id(0));
  sim.after_typed(200, r.id(0));
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(r.order.size(), 3u);
  EXPECT_EQ(sim.now(), 100 * kBeyondHorizon + 500);
}

TEST(Scheduler, WheelRolloverManyRotations) {
  // A periodic event crosses the wheel seam (granule wrap) thousands of
  // times; each dispatch must see monotonically advancing time.
  Simulator sim;
  Recorder r(sim);
  std::uint64_t count = 0;
  Time last = 0;
  bool monotonic = true;
  constexpr std::uint64_t kTicks = 20000;
  // A 1300 ps period is not a divisor of the wheel, so the event lands
  // at varying bucket offsets over ~1600 wheel laps. The tick re-arms
  // its own record.
  static_assert(1300 * kTicks > 1000 * kHorizon, "over a thousand laps");
  TypedEvent tick{};
  tick = r.action([&] {
    if (sim.now() < last) monotonic = false;
    last = sim.now();
    if (++count < kTicks) sim.after_typed(1300, tick);
  });
  sim.after_typed(1300, tick);
  sim.run();
  EXPECT_EQ(count, kTicks);
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.now(), 1300 * kTicks);
}

TEST(Scheduler, InsertBelowFastForwardedCursorStillDispatchesInOrder) {
  // run_until declines an event after next_event_key() fast-forwarded
  // the wheel cursor to its bucket; a subsequent insert below the cursor
  // must rewind it (insert() guard) and dispatch everything in order.
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(100, r.id(1));
  sim.at_typed(kHorizon / 2, r.id(3));  // same wheel window
  EXPECT_EQ(sim.run_until(500), 1u);  // dispatches t=100, peeks the other
  sim.at_typed(600, r.id(2));  // granule below the cursor
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), kHorizon / 2);
}

TEST(Scheduler, FarInsertUnderFastForwardedCursorDoesNotLapEarly) {
  // Regression: run_until() declines the first event after
  // next_event_key() fast-forwarded the cursor well past granule(now).
  // An insert that is beyond now()'s wheel horizon but *within the
  // cursor's* must not be admitted to the wheel: a subsequent near insert
  // rewinds the cursor to granule(now), and the far event — aliased into
  // a bucket between the rewound cursor and the declined event — would
  // dispatch one full wheel lap early (and drag now() backwards after it).
  Simulator sim;
  Recorder r(sim);
  // A bucket is one picosecond. From now()=10 the horizon ends at
  // 10 + kHorizon; from the cursor (fast-forwarded to `ahead`) it would
  // end at ahead + kHorizon, wrongly admitting `far`, whose bucket lies
  // between `near` and `ahead`.
  const Time ahead = kHorizon / 2;
  const Time far = 10 + kHorizon + kHorizon / 4;
  const Time near = 1000;
  sim.at_typed(ahead, r.id(2));
  EXPECT_EQ(sim.run_until(10), 0u);  // peek fast-forwards cursor to ahead
  sim.at_typed(far, r.id(3));   // beyond now()+horizon
  sim.at_typed(near, r.id(1));  // below cursor: rewinds
  std::vector<Time> times;
  while (sim.step()) times.push_back(sim.now());
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<Time>{near, ahead, far}));
}

TEST(Scheduler, OverflowMigrationAfterCursorFastForward) {
  // An overflow event older than every wheel event, with a
  // next_event_key() call interposed so the cursor has fast-forwarded
  // past the overflow granule before the migration happens (pop_earliest
  // rewind guard).
  Simulator sim;
  Recorder r(sim);
  const Time x = 10 + 3 * kHorizon;
  const Time y = x - kHorizon / 2;
  sim.at_typed(10, r.action([&] {
    sim.at_typed(x, r.id(2));  // overflow
    sim.at_typed(y, r.action([&] {
      sim.at_typed(x + 100, r.id(3));  // wheel
      r.order.push_back(1);
    }));
  }));
  // Drain through y, peeking (and fast-forwarding) each step.
  while (sim.next_event_key().time <= y) sim.step();
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, NextEventKeySeesBothWheelAndOverflow) {
  Simulator sim;
  Recorder r(sim);
  EXPECT_EQ(sim.next_event_key().time, kTimeNever);
  sim.at_typed(kBeyondHorizon, r.id(0));
  EXPECT_EQ(sim.next_event_key().time, kBeyondHorizon);
  sim.at_typed(300, r.id(0));
  EXPECT_EQ(sim.next_event_key().time, 300u);
  sim.step();
  EXPECT_EQ(sim.next_event_key().time, kBeyondHorizon);
}

TEST(Scheduler, RecordReachesTheDispatcherByteForByte) {
  // The node's capture area is the record: every field and payload byte
  // scheduled is the one dispatched.
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
  sim.at_typed(kBeyondHorizon, ev);  // through the overflow heap
  sim.run();
  EXPECT_EQ(std::memcmp(&seen, &ev, sizeof ev), 0);
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
//   * delays come in classes (DelayClass), from same-timestamp ties to
//     far timeouts of microseconds, sized against Simulator::kHorizonPs.
//     After a peek has fast-forwarded the wheel cursor, the test lands
//     events just past now() + kHorizonPs but inside the cursor's window
//     (horizon edge) and inserts below the cursor, which rewinds it. An
//     edge event followed by a rewind is the shape that dispatches one
//     wheel lap early if the horizon is checked against the cursor
//     instead of now();
//   * each round peeks next_event_key(), which must equal the oracle's
//     minimum, then drives one of the kernel's popping entry points: a
//     run_before() to a window {t, 0}, a pending key {t, b} or
//     {t, kTimeNever}; a run_until() segment of up to 6 us; 1-4 step()
//     calls; or, once the budget is spent, a run() that drains the
//     queue.
// Every bounded run call must dispatch exactly the oracle's prefix below
// its bound, return its length and park now() at bound.time. Each
// step() dispatches the oracle's minimum and returns false only when
// nothing is pending; run() dispatches everything. Every class and
// shape must occur for every seed, and at least kFollowUpRoundFloor
// rounds must dispatch a handler-scheduled event; the counts are printed.
bool key_before(EventKey a, EventKey b) {
  return std::tie(a.time, a.birth) < std::tie(b.time, b.birth);
}

struct OracleEntry {
  EventKey key;
  std::uint32_t id;  // = seq
  bool wheel;  // scheduled less than kHorizon past now(): in the wheel
  bool follow_up;  // scheduled by a handler
  bool operator<(const OracleEntry& o) const {
    return std::tie(key.time, key.birth, id) <
           std::tie(o.key.time, o.key.birth, o.id);
  }
};

enum DelayClass : std::size_t {
  kTie,          // 0: a same-timestamp tie
  kAdjacent,     // 1-3 ps: neighbouring one-picosecond buckets
  kHandshake,    // up to 2.5 ns: a circuit delay
  kHorizonSpan,  // within 1.5 ns either side of the horizon
  kPastHorizon,  // 1-5 horizons out: overflow that migrates soon
  kFarTimeout,   // 3-23 us: deep overflow
  kHorizonEdge,  // past now() + kHorizon, within the cursor's window
  kBelowCursor,  // under a fast-forwarded cursor: rewinds it
  kLapEarly,     // a horizon-edge event, then a below-cursor insert
  kDelayClasses
};
constexpr std::size_t kRandomClasses = kFarTimeout + 1;
constexpr std::array<const char*, kDelayClasses> kClassNames = {
    "tie",          "adjacent",     "handshake",
    "horizon-span", "past-horizon", "far-timeout",
    "horizon-edge", "below-cursor", "lap-early"};

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
  std::size_t wheel_pending = 0;  // pending entries flagged `wheel`
  EventKey bound;                 // of the run call in progress
  std::uint64_t fired = 0;
  Time last_fired = 0;            // the time of the latest dispatch
  std::string failure;            // the first dispatch off the oracle
  std::uint32_t next_id = 0;
  std::uint64_t budget = 20000;   // follow-ups handlers may still schedule
  std::uint64_t round_budget = 0;  // of those, in the current round
  std::uint64_t round = 0;         // the storm's current round
  std::uint64_t follow_up_rounds = 0;  // rounds that dispatched a follow-up
  std::uint64_t last_follow_up_round = ~std::uint64_t{0};
  std::array<std::uint64_t, kDelayClasses> classes{};

  explicit OracleRun(std::uint64_t seed) : rng(seed) {
    sim.set_typed_dispatcher([](TypedEvent& ev) {
      static_cast<OracleRun*>(ev.p0)->fire(ev.d);
    });
  }

  TypedEvent record() {
    TypedEvent ev{};
    ev.op = 1;
    ev.p0 = this;
    ev.d = next_id;
    return ev;
  }
  void add(EventKey key, bool follow_up = false) {
    const bool wheel = key.time - sim.now() < kHorizon;
    pending.insert({key, next_id++, wheel, follow_up});
    wheel_pending += wheel;
  }
  void schedule(Time delay, bool follow_up = false) {
    sim.after_typed(delay, record());
    add(EventKey{sim.now() + delay, sim.now()}, follow_up);
  }
  void admit(EventKey key) {
    sim.admit_typed(key, record());
    add(key);
  }
  /// A delay of class `c`, counted. The two cursor classes draw below
  /// `gap`, how far the cursor is known to sit past now().
  Time delay(DelayClass c, Time gap = 1) {
    ++classes[c];
    switch (c) {
      case kTie: return 0;
      case kAdjacent: return 1 + rng.next_below(3);
      case kHandshake: return 4 + rng.next_below(2500);
      case kHorizonSpan: return kHorizon - 1500 + rng.next_below(3000);
      case kPastHorizon:
        return kHorizon + 1500 + rng.next_below(4 * kHorizon);
      case kFarTimeout: return 3000000 + rng.next_below(20000000);
      case kHorizonEdge: return kHorizon + rng.next_below(gap);
      case kBelowCursor: return rng.next_below(gap);
      default: return 0;  // kLapEarly counts a pair, not a delay
    }
  }
  Time random_delay() {
    return delay(static_cast<DelayClass>(rng.next_below(kRandomClasses)));
  }

  void fire(std::uint32_t id) {
    ++fired;
    last_fired = sim.now();
    if (pending.empty()) return note(id, "nothing is pending");
    const OracleEntry e = *pending.begin();
    pending.erase(pending.begin());
    wheel_pending -= e.wheel;
    if (e.id != id || sim.now() != e.key.time) {
      note(id, "expected id " + std::to_string(e.id) + " at (" +
                   std::to_string(e.key.time) + ", " +
                   std::to_string(e.key.birth) + ")");
    } else if (!key_before(e.key, bound)) {
      note(id, "its key is not before the bound");
    }
    if (e.follow_up && last_follow_up_round != round) {
      last_follow_up_round = round;
      ++follow_up_rounds;
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
};

TEST(Scheduler, RunBeforeDispatchesTheSortedPrefixBelowEachBound) {
  constexpr std::uint64_t kRounds = 5000;
  constexpr std::uint64_t kFollowUpsPerRound = 12;
  constexpr std::uint64_t kFollowUpRoundFloor = 2500;
  for (const std::uint64_t seed :
       {1ull, 42ull, 0xDEADBEEFull, 3ull, 17ull, 0xC0FFEEull}) {
    OracleRun o(seed);
    Rng& rng = o.rng;
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

      // The peek left the cursor on the first non-empty wheel bucket, so
      // with a wheel event pending it sits at least `gap` past now().
      if (o.wheel_pending > 0 && next.time > now) {
        const Time gap = next.time - now;
        const std::uint64_t pick = rng.next_below(4);
        const bool edge = pick == 0 || pick == 2;
        if (edge) o.schedule(o.delay(kHorizonEdge, gap));
        if (pick == 1 || pick == 2) {
          o.schedule(o.delay(kBelowCursor, gap));
          if (edge) ++o.classes[kLapEarly];
        }
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
        o.bound = EventKey{kTimeNever, kTimeNever};
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
    o.bound = EventKey{kTimeNever, kTimeNever};
    o.sim.run();
    EXPECT_TRUE(o.failure.empty()) << "seed " << seed << ": " << o.failure;
    EXPECT_TRUE(o.pending.empty()) << "seed " << seed;
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
    for (std::size_t s = 0; s < kBoundShapes; ++s) {
      std::printf(" %s %llu", kShapeNames[s],
                  static_cast<unsigned long long>(shapes[s]));
      EXPECT_GT(shapes[s], 100u) << "seed " << seed << " " << kShapeNames[s];
    }
    std::printf("\n");
  }
}

// The pop routine migrates overflow events that have come inside the
// horizon before it compares the earliest key with the bound, so a
// run_before() can migrate an event and then decline to dispatch it.
// Here a peek has also fast-forwarded the cursor past the migrant's
// granule: O sits in the overflow, W in the wheel after it, and the
// peek leaves the cursor on W. run_before() must rewind the cursor,
// migrate O, and decline; the next dispatch is still the oracle's
// minimum, O, not W.
TEST(Scheduler, RunBeforeDeclinesItsBoundRightAfterAMigration) {
  OracleRun o(1);
  o.budget = 0;  // handlers schedule no follow-ups
  o.schedule(kHorizon + 100);  // O, id 0: beyond the horizon at t = 0
  o.bound = EventKey{200, kTimeNever};
  ASSERT_EQ(o.sim.run_until(200), 0u);
  o.schedule(kHorizon - 1);  // W, id 1: in the wheel, after O
  const EventKey peek = o.sim.next_event_key();  // leaves the cursor on W
  ASSERT_EQ(peek.time, kHorizon + 100);           // O's key
  ASSERT_EQ(peek.birth, 0u);

  o.bound = EventKey{kHorizon + 50, kTimeNever};
  ASSERT_EQ(o.sim.run_before(o.bound), 0u);  // migrates O, then declines
  ASSERT_EQ(o.sim.now(), kHorizon + 50);
  ASSERT_EQ(o.sim.pending(), 2u);

  o.bound = EventKey{kTimeNever, kTimeNever};
  ASSERT_TRUE(o.sim.step());
  ASSERT_TRUE(o.failure.empty()) << o.failure;
  EXPECT_EQ(o.sim.run(), 1u);
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
