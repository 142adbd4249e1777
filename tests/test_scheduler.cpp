// Calendar-queue scheduler coverage: ordering semantics the NoC model
// depends on, wheel/overflow mechanics, and a randomized differential
// check against the reference priority-queue kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/legacy_kernel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "typed_recorder.hpp"

namespace mango::sim {
namespace {

using test::Recorder;

// One wheel bucket is 512 ps and the wheel spans 4096 buckets, so events
// past ~2.1 us of the cursor take the overflow path. Derived here rather
// than exported: the values are an implementation detail, the tests only
// need "definitely beyond the horizon".
constexpr Time kBeyondHorizon = 8 * 1000 * 1000;  // 8 us

TEST(Scheduler, SameTimestampDispatchesInInsertionOrderAcrossBuckets) {
  Simulator sim;
  Recorder r(sim);
  // Interleave three timestamps so insertions hit the same bucket list
  // non-monotonically: 700 and 900 share bucket 1, 100 sits in bucket 0.
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
  sim.at_typed(10, r.action([&] {
    // From t=10 the horizon ends around ~2.1 us, so 5 us is overflow.
    sim.at_typed(5 * 1000 * 1000, r.id(2));
    // Walk the cursor forward with a chain of near events until the
    // 5 us granule is inside the window, then insert a later wheel event.
    sim.at_typed(4 * 1000 * 1000, r.action([&] {
      sim.at_typed(5 * 1000 * 1000 + 100, r.id(3));
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
  // 1300 ps period: co-prime-ish with the 512 ps bucket so the event
  // lands at varying bucket offsets. The tick re-arms its own record.
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
  sim.at_typed(1 * 1000 * 1000, r.id(3));  // same wheel window
  EXPECT_EQ(sim.run_until(500), 1u);  // dispatches t=100, peeks at t=1e6
  sim.at_typed(600, r.id(2));  // granule below the cursor
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 1 * 1000 * 1000u);
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
  // Granules (512 ps buckets): 51200 -> 100, 2107392 -> 4116, 5120 -> 10.
  // From now()=10 the horizon ends at granule 4096; from the cursor
  // (fast-forwarded to 100) it would end at 4196, wrongly admitting 4116.
  sim.at_typed(51200, r.id(2));
  EXPECT_EQ(sim.run_until(10), 0u);  // peek fast-forwards cursor to 100
  sim.at_typed(2107392, r.id(3));  // beyond now()+horizon
  sim.at_typed(5120, r.id(1));     // below cursor: rewinds
  std::vector<Time> times;
  while (sim.step()) times.push_back(sim.now());
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<Time>{5120, 51200, 2107392}));
}

TEST(Scheduler, OverflowMigrationAfterCursorFastForward) {
  // An overflow event older than every wheel event, with a
  // next_event_key() call interposed so the cursor has fast-forwarded
  // past the overflow granule before the migration happens (pop_earliest
  // rewind guard).
  Simulator sim;
  Recorder r(sim);
  sim.at_typed(10, r.action([&] {
    sim.at_typed(5 * 1000 * 1000, r.id(2));  // overflow
    sim.at_typed(4 * 1000 * 1000, r.action([&] {
      sim.at_typed(5 * 1000 * 1000 + 100, r.id(3));  // wheel
      r.order.push_back(1);
    }));
  }));
  // Drain up to just past t=4e6, peeking (and fast-forwarding) each step.
  while (sim.next_event_key().time <= 4 * 1000 * 1000) sim.step();
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

// run_before against a sorted oracle. Organic schedules (from the test
// and from handlers) mix with admit_typed events whose random births are
// at most their times, some past the wheel horizon; the kernel is driven
// through random bounds of all three shapes — {t, 0}, a pending key
// {t, b}, and {t, kTimeNever}. Each call must dispatch exactly the
// oracle's (key, seq)-sorted prefix below the bound, return its length
// and park now() at bound.time.
struct OracleEntry {
  EventKey key;
  std::uint64_t seq;
  std::uint32_t id;
  bool operator<(const OracleEntry& o) const {
    return key == o.key ? seq < o.seq : key < o.key;
  }
};

struct OracleRun {
  Simulator sim;
  Rng rng;
  std::set<OracleEntry> pending;  // what the kernel should still hold
  std::vector<std::uint32_t> fired;
  std::vector<std::uint32_t> expected;
  std::vector<EventKey> expected_keys;
  std::uint64_t next_seq = 0;  // mirrors the kernel's insertion counter
  std::uint32_t next_id = 0;
  std::uint64_t budget = 6000;

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
  void schedule(Time delay) {
    const EventKey key{sim.now() + delay, sim.now()};
    sim.after_typed(delay, record());
    pending.insert({key, next_seq++, next_id++});
  }
  void admit(EventKey key) {
    sim.admit_typed(key, record());
    pending.insert({key, next_seq++, next_id++});
  }

  /// A delay that is zero, short, near the ~16.4-ns wheel horizon or
  /// past it.
  Time random_delay() {
    switch (rng.next_below(5)) {
      case 0: return 0;
      case 1: return rng.next_below(4);
      case 2: return rng.next_below(2000);
      case 3: return 15000 + rng.next_below(3000);
      default: return 20000 + rng.next_below(60000);
    }
  }

  void fire(std::uint32_t id) {
    fired.push_back(id);
    if (pending.empty()) {
      expected.push_back(~std::uint32_t{0});  // the oracle holds nothing
    } else {
      expected.push_back(pending.begin()->id);
      expected_keys.push_back(pending.begin()->key);
      pending.erase(pending.begin());
    }
    if (budget > 0 && rng.next_below(3) == 0) {
      --budget;
      schedule(random_delay());
    }
  }
};

TEST(Scheduler, RunBeforeDispatchesTheSortedPrefixBelowEachBound) {
  for (const std::uint64_t seed : {3ull, 17ull, 0xC0FFEEull}) {
    OracleRun o(seed);
    Rng& rng = o.rng;
    std::uint64_t shapes[3] = {};
    for (int round = 0; round < 600; ++round) {
      for (std::uint64_t k = rng.next_below(4); k > 0; --k) {
        const Time now = o.sim.now();
        if (rng.next_below(2) == 0) {
          o.schedule(o.random_delay());
        } else {
          // Births anywhere up to the event time: before now() (a
          // sender behind the receiver), at now(), or after it.
          const Time t = now + o.random_delay();
          const Time b = rng.next_below(3) == 0 ? now : rng.next_below(t + 1);
          o.admit(EventKey{t, b});
        }
      }
      const Time now = o.sim.now();
      EventKey bound;
      const std::uint64_t shape = rng.next_below(3);
      if (shape == 1 && !o.pending.empty()) {
        auto it = o.pending.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(std::min<std::uint64_t>(
                                 o.pending.size(), 8))));
        bound = it->key;
      } else {
        const Time t = now + rng.next_below(30000);
        bound = shape == 0 ? EventKey{t, 0} : EventKey{t, kTimeNever};
      }
      ++shapes[shape];
      o.fired.clear();
      o.expected.clear();
      o.expected_keys.clear();
      const std::uint64_t n = o.sim.run_before(bound);
      ASSERT_EQ(o.fired, o.expected) << "seed " << seed << " round " << round;
      ASSERT_EQ(n, o.fired.size());
      for (const EventKey& k : o.expected_keys) {
        ASSERT_TRUE(k < bound) << "seed " << seed << " round " << round;
      }
      ASSERT_TRUE(o.pending.empty() || !(o.pending.begin()->key < bound))
          << "seed " << seed << " round " << round;
      ASSERT_EQ(o.sim.now(), std::max(now, bound.time));
      ASSERT_EQ(o.sim.pending(), o.pending.size());
    }
    for (const std::uint64_t c : shapes) EXPECT_GT(c, 100u) << "seed " << seed;
    o.fired.clear();
    o.expected.clear();
    o.sim.run();
    EXPECT_EQ(o.fired, o.expected) << "seed " << seed;
    EXPECT_TRUE(o.pending.empty());
  }
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

/// Randomized differential test: the calendar-queue kernel and the
/// reference priority-queue kernel must produce bit-identical dispatch
/// sequences — (time, event id) — for identical workloads mixing
/// handshake-scale delays, far timeouts and same-time ties. The
/// production kernel schedules each storm node as a typed record (p0 =
/// the storm's shared state, d = the node id); the reference kernel
/// schedules it as a closure.
template <typename Kernel>
struct Storm {
  Kernel sim;
  Rng rng;
  std::vector<std::pair<Time, std::uint64_t>> trace;
  std::uint64_t next_id = 0;
  std::uint64_t budget = 20000;

  explicit Storm(std::uint64_t seed) : rng(seed) {
    if constexpr (std::is_same_v<Kernel, Simulator>) {
      sim.set_typed_dispatcher([](TypedEvent& ev) {
        static_cast<Storm*>(ev.p0)->fire(ev.d);
      });
    }
  }

  void schedule(Time d) {
    const std::uint64_t id = next_id++;
    if constexpr (std::is_same_v<Kernel, Simulator>) {
      TypedEvent ev{};
      ev.op = 1;
      ev.p0 = this;
      ev.d = static_cast<std::uint32_t>(id);
      sim.after_typed(d, ev);
    } else {
      sim.after(d, [this, id] { fire(id); });
    }
  }

  void fire(std::uint64_t id) {
    trace.emplace_back(sim.now(), id);
    if (budget == 0) return;
    // 0-2 follow-ups with mixed horizons, sometimes zero delay.
    const std::uint64_t kids = rng.next_below(3);
    for (std::uint64_t k = 0; k < kids && budget > 0; ++k) {
      --budget;
      const std::uint64_t kind = rng.next_below(10);
      Time d = 0;
      if (kind == 0) {
        d = 0;  // same-timestamp tie
      } else if (kind == 1) {
        d = 3 * 1000 * 1000 + rng.next_below(20 * 1000 * 1000);
      } else {
        d = 60 + rng.next_below(2500);
      }
      schedule(d);
    }
  }
};

template <typename Kernel>
std::vector<std::pair<Time, std::uint64_t>> run_storm(std::uint64_t seed) {
  Storm<Kernel> st(seed);
  Kernel& sim = st.sim;
  Rng& rng = st.rng;
  for (int i = 0; i < 32; ++i) st.schedule(rng.next_below(1000));
  // Drive through randomized run_until() boundaries instead of one run(),
  // peeking next_event_key() (which fast-forwards the calendar cursor)
  // and scheduling fresh events from *outside* any handler between
  // segments — the cursor fast-forward/rewind state space that pure
  // run()-driven storms never enter. The wheel horizon is ~2.1 us, so the
  // delay mix below straddles it from both sides.
  while (!sim.idle()) {
    sim.run_until(sim.now() + 1 + rng.next_below(6 * 1000 * 1000));
    if constexpr (std::is_same_v<Kernel, Simulator>) {
      (void)sim.next_event_key();
    }
    const std::uint64_t extra = rng.next_below(3);
    for (std::uint64_t k = 0; k < extra && st.budget > 0; ++k) {
      --st.budget;
      const std::uint64_t kind = rng.next_below(4);
      Time d = 0;
      if (kind == 0) {
        d = rng.next_below(2500);  // near: below the cursor when rewound
      } else if (kind == 1) {
        // Horizon edge: beyond now()+horizon yet possibly within the
        // fast-forwarded cursor's window (the lap-early aliasing shape).
        d = 2 * 1000 * 1000 + rng.next_below(400 * 1000);
      } else {
        d = 3 * 1000 * 1000 + rng.next_below(20 * 1000 * 1000);  // far
      }
      st.schedule(d);
    }
  }
  return st.trace;
}

TEST(SchedulerDifferential, BitIdenticalDispatchVsLegacyKernel) {
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    const auto a = run_storm<Simulator>(seed);
    const auto b = run_storm<LegacySimulator>(seed);
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "divergence at event " << i << ", seed "
                            << seed;
    }
  }
}

}  // namespace
}  // namespace mango::sim
