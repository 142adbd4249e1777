// Calendar-queue scheduler coverage: ordering semantics the NoC model
// depends on, wheel/overflow mechanics, and a randomized differential
// check against the reference priority-queue kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/legacy_kernel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mango::sim {
namespace {

// One wheel bucket is 512 ps and the wheel spans 4096 buckets, so events
// past ~2.1 us of the cursor take the overflow path. Derived here rather
// than exported: the values are an implementation detail, the tests only
// need "definitely beyond the horizon".
constexpr Time kBeyondHorizon = 8 * 1000 * 1000;  // 8 us

TEST(Scheduler, SameTimestampDispatchesInInsertionOrderAcrossBuckets) {
  Simulator sim;
  std::vector<int> order;
  // Interleave three timestamps so insertions hit the same bucket list
  // non-monotonically: 700 and 900 share bucket 1, 100 sits in bucket 0.
  sim.at(900, [&] { order.push_back(3); });
  sim.at(100, [&] { order.push_back(1); });
  sim.at(700, [&] { order.push_back(2); });
  sim.at(900, [&] { order.push_back(4); });  // same time, later insertion
  sim.at(700, [&] { order.push_back(5); });  // sorted insert mid-bucket
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, 3, 4}));
}

TEST(Scheduler, OverflowEventsDispatchAfterWheelEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.at(kBeyondHorizon, [&] { order.push_back(2); });  // overflow path
  sim.at(500, [&] { order.push_back(1); });             // wheel path
  sim.at(2 * kBeyondHorizon, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 2 * kBeyondHorizon);
}

TEST(Scheduler, OverflowTieBreaksBySeqAfterMigration) {
  Simulator sim;
  std::vector<int> order;
  // All beyond the horizon at the same timestamp: the overflow heap must
  // preserve insertion order when they migrate into one bucket.
  for (int i = 0; i < 8; ++i) {
    sim.at(kBeyondHorizon, [&order, i] { order.push_back(i); });
  }
  // Advance the clock to just below the ties and anchor a wheel event so
  // the ties actually take the migration path (with an empty wheel the
  // kernel pops the overflow heap directly, which would not cover it).
  sim.run_until(kBeyondHorizon - 1000);
  sim.after(50, [&order] { order.push_back(-1); });
  sim.run();
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], -1);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i) + 1], i);
}

TEST(Scheduler, AdmittedOverflowTiesDispatchByBirthThenSeq) {
  // admit() carries an explicit birth; beyond the horizon the events land
  // in the overflow heap, which must order by the full (time, birth, seq)
  // key — not raw insertion order. Births are deliberately inserted
  // out of order, with one same-birth pair left to the seq tie-break.
  Simulator sim;
  std::vector<int> order;
  sim.admit(kBeyondHorizon, 700, [&] { order.push_back(3); });
  sim.admit(kBeyondHorizon, 100, [&] { order.push_back(1); });
  sim.admit(kBeyondHorizon, 700, [&] { order.push_back(4); });  // seq tie
  sim.admit(kBeyondHorizon, 300, [&] { order.push_back(2); });
  // An earlier timestamp beats every later-time event regardless of its
  // birth being the largest of the batch.
  sim.admit(kBeyondHorizon - 512, 900, [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

  // Same shape through the migration path: advance the clock so the
  // granule enters the wheel window and the ties migrate into one bucket
  // (with an empty wheel the kernel pops the heap directly; the anchor
  // event forces the migration).
  Simulator sim2;
  order.clear();
  sim2.admit(kBeyondHorizon, 500, [&] { order.push_back(2); });
  sim2.admit(kBeyondHorizon, 200, [&] { order.push_back(1); });
  sim2.run_until(kBeyondHorizon - 1000);
  sim2.after(50, [&] { order.push_back(0); });
  sim2.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Typed records and callbacks draw their (time, birth, seq) keys from
// one sequence: the encoding of an event never changes where it lands.
// The test dispatcher records each typed record's id (field `a`).
std::vector<int>* g_typed_order = nullptr;
void record_typed(TypedEvent& ev) { g_typed_order->push_back(ev.a); }
TypedEvent typed_id(std::uint8_t id) {
  TypedEvent ev{};
  ev.op = 1;
  ev.a = id;
  return ev;
}

TEST(Scheduler, TypedAndCallbackEventsAtOneTimestampKeepInsertionOrder) {
  // Once in a wheel bucket, once in the overflow heap.
  for (const Time t : {Time{700}, kBeyondHorizon}) {
    Simulator sim;
    sim.set_typed_dispatcher(&record_typed);
    std::vector<int> order;
    g_typed_order = &order;
    sim.at_typed(t, typed_id(1));
    sim.at(t, [&] { order.push_back(2); });
    sim.after_typed(t, typed_id(3));
    sim.after(t, [&] { order.push_back(4); });
    sim.at_typed(t, typed_id(5));
    sim.at(t - 1, [&] { order.push_back(0); });
    sim.run();
    g_typed_order = nullptr;
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5})) << "t=" << t;
  }
}

TEST(Scheduler, AdmitTypedAndAdmitOrderByBirthThenSeq) {
  for (const Time t : {Time{700}, kBeyondHorizon}) {
    Simulator sim;
    sim.set_typed_dispatcher(&record_typed);
    std::vector<int> order;
    g_typed_order = &order;
    sim.admit_typed(t, 500, typed_id(4));
    sim.admit(t, 200, [&] { order.push_back(2); });
    sim.admit(t, 500, [&] { order.push_back(5); });  // seq tie with 4
    sim.admit_typed(t, 100, typed_id(1));
    sim.admit_typed(t, 200, typed_id(3));  // seq tie with 2
    sim.at(t, [&] { order.push_back(0); });  // birth 0 = now()
    sim.run();
    g_typed_order = nullptr;
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5})) << "t=" << t;
  }
}

TEST(Scheduler, OverflowEventEarlierThanLaterWheelInsertStillWins) {
  // Regression shape: an overflow event whose granule enters the wheel
  // window only after the cursor advances must still dispatch before a
  // *later* event that was inserted directly into the wheel.
  Simulator sim;
  std::vector<int> order;
  sim.at(10, [&] {
    // From t=10 the horizon ends around ~2.1 us, so 5 us is overflow.
    sim.at(5 * 1000 * 1000, [&] { order.push_back(2); });
    // Walk the cursor forward with a chain of near events until the
    // 5 us granule is inside the window, then insert a later wheel event.
    sim.at(4 * 1000 * 1000, [&] {
      sim.at(5 * 1000 * 1000 + 100, [&] { order.push_back(3); });
      order.push_back(1);
    });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, RunUntilBoundaryWithOverflowEvents) {
  Simulator sim;
  int fired = 0;
  sim.at(100, [&] { ++fired; });
  sim.at(kBeyondHorizon, [&] { ++fired; });
  sim.at(kBeyondHorizon + 1, [&] { ++fired; });
  // Stop between the wheel event and the overflow events.
  EXPECT_EQ(sim.run_until(kBeyondHorizon - 1), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kBeyondHorizon - 1);
  // Boundary inclusive: exactly at the overflow event's time.
  EXPECT_EQ(sim.run_until(kBeyondHorizon), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, SchedulingAfterIdleRunUntilReanchorsTheWheel) {
  Simulator sim;
  int fired = 0;
  sim.at(100, [&] { ++fired; });
  sim.run();
  // Advance the clock far past the (stale) wheel cursor, then schedule
  // near events again: they must land and dispatch normally.
  sim.run_until(100 * kBeyondHorizon);
  EXPECT_EQ(sim.now(), 100 * kBeyondHorizon);
  sim.after(500, [&] { ++fired; });
  sim.after(200, [&] { ++fired; });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 100 * kBeyondHorizon + 500);
}

TEST(Scheduler, WheelRolloverManyRotations) {
  // A periodic event crosses the wheel seam (granule wrap) thousands of
  // times; each dispatch must see monotonically advancing time.
  Simulator sim;
  std::uint64_t count = 0;
  Time last = 0;
  bool monotonic = true;
  constexpr std::uint64_t kTicks = 20000;
  // 1300 ps period: co-prime-ish with the 512 ps bucket so the event
  // lands at varying bucket offsets.
  struct Tick {
    Simulator* sim;
    std::uint64_t* count;
    Time* last;
    bool* monotonic;
    void operator()() const {
      if (sim->now() < *last) *monotonic = false;
      *last = sim->now();
      if (++*count < kTicks) sim->after(1300, *this);
    }
  };
  sim.after(1300, Tick{&sim, &count, &last, &monotonic});
  sim.run();
  EXPECT_EQ(count, kTicks);
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.now(), 1300 * kTicks);
}

TEST(Scheduler, InsertBelowFastForwardedCursorStillDispatchesInOrder) {
  // run_until declines an event after next_event_time() fast-forwarded
  // the wheel cursor to its bucket; a subsequent insert below the cursor
  // must rewind it (insert() guard) and dispatch everything in order.
  Simulator sim;
  std::vector<int> order;
  sim.at(100, [&] { order.push_back(1); });
  sim.at(1 * 1000 * 1000, [&] { order.push_back(3); });  // same wheel window
  EXPECT_EQ(sim.run_until(500), 1u);  // dispatches t=100, peeks at t=1e6
  sim.at(600, [&] { order.push_back(2); });  // granule below the cursor
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 1 * 1000 * 1000u);
}

TEST(Scheduler, FarInsertUnderFastForwardedCursorDoesNotLapEarly) {
  // Regression: run_until() declines the first event after
  // next_event_time() fast-forwarded the cursor well past granule(now).
  // An insert that is beyond now()'s wheel horizon but *within the
  // cursor's* must not be admitted to the wheel: a subsequent near insert
  // rewinds the cursor to granule(now), and the far event — aliased into
  // a bucket between the rewound cursor and the declined event — would
  // dispatch one full wheel lap early (and drag now() backwards after it).
  Simulator sim;
  std::vector<int> order;
  // Granules (512 ps buckets): 51200 -> 100, 2107392 -> 4116, 5120 -> 10.
  // From now()=10 the horizon ends at granule 4096; from the cursor
  // (fast-forwarded to 100) it would end at 4196, wrongly admitting 4116.
  sim.at(51200, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run_until(10), 0u);  // peek fast-forwards cursor to 100
  sim.at(2107392, [&] { order.push_back(3); });  // beyond now()+horizon
  sim.at(5120, [&] { order.push_back(1); });     // below cursor: rewinds
  std::vector<Time> times;
  while (sim.step()) times.push_back(sim.now());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<Time>{5120, 51200, 2107392}));
}

TEST(Scheduler, OverflowMigrationAfterCursorFastForward) {
  // An overflow event older than every wheel event, with a
  // next_event_time() call interposed so the cursor has fast-forwarded
  // past the overflow granule before the migration happens (pop_earliest
  // rewind guard).
  Simulator sim;
  std::vector<int> order;
  sim.at(10, [&] {
    sim.at(5 * 1000 * 1000, [&] { order.push_back(2); });  // overflow
    sim.at(4 * 1000 * 1000, [&] {
      sim.at(5 * 1000 * 1000 + 100, [&] { order.push_back(3); });  // wheel
      order.push_back(1);
    });
  });
  // Drain up to just past t=4e6, peeking (and fast-forwarding) each step.
  while (sim.next_event_time() <= 4 * 1000 * 1000) sim.step();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, NextEventTimeSeesBothWheelAndOverflow) {
  Simulator sim;
  EXPECT_EQ(sim.next_event_time(), kTimeNever);
  sim.at(kBeyondHorizon, [] {});
  EXPECT_EQ(sim.next_event_time(), kBeyondHorizon);
  sim.at(300, [] {});
  EXPECT_EQ(sim.next_event_time(), 300u);
  sim.step();
  EXPECT_EQ(sim.next_event_time(), kBeyondHorizon);
}

TEST(Scheduler, LargeCaptureSpillsToHeapAndStillRuns) {
  Simulator sim;
  struct Big {
    std::uint64_t words[32] = {};
  };
  static_assert(!Simulator::Callback::stores_inline<Big>());
  Big big;
  big.words[31] = 42;
  std::uint64_t seen = 0;
  sim.at(10, [big, &seen] { seen = big.words[31]; });
  sim.run();
  EXPECT_EQ(seen, 42u);
}

TEST(InlineFunctionTest, InlineCapturesDoNotAllocate) {
  struct Small {
    void* a;
    void* b;
    void* c;
    void operator()() const {}
  };
  static_assert(InlineCallback::stores_inline<Small>());
  static_assert(Simulator::Callback::stores_inline<Small>());
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
/// handshake-scale delays, far timeouts and same-time ties.
template <typename Kernel>
std::vector<std::pair<Time, std::uint64_t>> run_storm(std::uint64_t seed) {
  Kernel sim;
  Rng rng(seed);
  std::vector<std::pair<Time, std::uint64_t>> trace;
  std::uint64_t next_id = 0;
  std::uint64_t budget = 20000;

  struct Ctl {
    Kernel* sim;
    Rng* rng;
    std::vector<std::pair<Time, std::uint64_t>>* trace;
    std::uint64_t* next_id;
    std::uint64_t* budget;
  } ctl{&sim, &rng, &trace, &next_id, &budget};

  struct Node {
    Ctl* c;
    std::uint64_t id;
    void operator()() const {
      c->trace->emplace_back(c->sim->now(), id);
      if (*c->budget == 0) return;
      // 0-2 follow-ups with mixed horizons, sometimes zero delay.
      const std::uint64_t kids = c->rng->next_below(3);
      for (std::uint64_t k = 0; k < kids && *c->budget > 0; ++k) {
        --*c->budget;
        const std::uint64_t kind = c->rng->next_below(10);
        Time d = 0;
        if (kind == 0) {
          d = 0;  // same-timestamp tie
        } else if (kind == 1) {
          d = 3 * 1000 * 1000 + c->rng->next_below(20 * 1000 * 1000);
        } else {
          d = 60 + c->rng->next_below(2500);
        }
        c->sim->after(d, Node{c, (*c->next_id)++});
      }
    }
  };

  for (int i = 0; i < 32; ++i) {
    sim.after(rng.next_below(1000), Node{&ctl, next_id++});
  }
  // Drive through randomized run_until() boundaries instead of one run(),
  // peeking next_event_time() (which fast-forwards the calendar cursor)
  // and scheduling fresh events from *outside* any callback between
  // segments — the cursor fast-forward/rewind state space that pure
  // run()-driven storms never enter. The wheel horizon is ~2.1 us, so the
  // delay mix below straddles it from both sides.
  while (!sim.idle()) {
    sim.run_until(sim.now() + 1 + rng.next_below(6 * 1000 * 1000));
    (void)sim.next_event_time();
    const std::uint64_t extra = rng.next_below(3);
    for (std::uint64_t k = 0; k < extra && budget > 0; ++k) {
      --budget;
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
      sim.after(d, Node{&ctl, next_id++});
    }
  }
  return trace;
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
