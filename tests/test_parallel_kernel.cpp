// Sharded conservative kernel: the (EventKey, seq) merge order, the
// window/lookahead contract, the batched boundary handoff, the topology
// partition, the sweep core budget — and the invariant everything above
// exists to uphold: a scenario's stats are bit-identical for every
// --shards value, on all four fabrics, with and without connection
// churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "noc/network/network.hpp"
#include "sim/assert.hpp"
#include "sim/context.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/spsc.hpp"
#include "typed_recorder.hpp"

namespace mango {
namespace {

// --- kernel ordering ---------------------------------------------------

// Dispatch order is (time, birth, seq): an event admitted from another
// shard with an earlier birth overtakes a same-time local event even
// though it was inserted later.
TEST(ParallelKernel, AdmittedEventSortsByBirthAgainstLocals) {
  sim::Simulator s;
  test::Recorder r(s);
  // Local event scheduled at t=50 for t=100: birth 50.
  s.at_typed(50, r.action([&] { s.at_typed(100, r.id(1)); }));
  EXPECT_EQ(s.run_until(60), 1u);
  // Boundary event for the same instant, born at 10 on the sender.
  s.admit_typed(sim::EventKey{100, 10}, r.id(2));
  // And one born later than the local event.
  s.admit_typed(sim::EventKey{100, 70}, r.id(3));
  s.run_until(100);
  EXPECT_EQ(r.order, (std::vector<int>{2, 1, 3}));
}

// Equal (time, birth) falls back to insertion order — the organic case,
// identical to the classic (time, seq) kernel.
TEST(ParallelKernel, EqualBirthPreservesInsertionOrder) {
  sim::Simulator s;
  test::Recorder r(s);
  s.at_typed(100, r.id(1));
  s.at_typed(100, r.id(2));
  s.admit_typed(sim::EventKey{100, 0}, r.id(3));
  s.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
}

// --- window contract ---------------------------------------------------

// A window bound {end, 0} is half-open: events strictly before `end`
// dispatch, events exactly at `end` stay pending, and the clock parks at
// `end` so the barrier can admit boundary events *at* the edge.
TEST(ParallelKernel, WindowBoundIsHalfOpen) {
  sim::Simulator s;
  test::Recorder r(s);
  s.at_typed(99, r.id(1));
  s.at_typed(100, r.id(2));
  EXPECT_EQ(s.run_before(sim::EventKey{100, 0}), 1u);
  EXPECT_EQ(r.order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), 100u);
  EXPECT_EQ(s.pending(), 1u);
}

// The satellite case the half-open window exists for: a boundary flit
// whose arrival lands exactly on a window edge is admitted at the
// barrier and still merges *ahead* of the edge-time local event when
// its sender-side birth is earlier.
TEST(ParallelKernel, BoundaryFlitExactlyOnWindowEdgeMergesByBirth) {
  sim::Simulator s;
  test::Recorder r(s);
  s.at_typed(40, r.action([&] { s.at_typed(100, r.id(1)); }));  // birth 40
  s.run_before(sim::EventKey{100, 0});  // park at the edge; t=100 pends
  s.admit_typed(sim::EventKey{100, 20}, r.id(2));  // born earlier remotely
  s.run_before(sim::EventKey{200, 0});
  EXPECT_EQ(r.order, (std::vector<int>{2, 1}));
}

// A control-key bound {t, b} aligns a shard on an exact key: events
// strictly before the key dispatch, the event *at* the key does not.
TEST(ParallelKernel, ControlKeyBoundStopsAtTheExactKey) {
  sim::Simulator s;
  test::Recorder r(s);
  s.admit_typed(sim::EventKey{100, 10}, r.id(1));
  s.admit_typed(sim::EventKey{100, 50}, r.id(2));
  EXPECT_EQ(s.run_before(sim::EventKey{100, 50}), 1u);
  EXPECT_EQ(r.order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), 100u);
  s.run();
  EXPECT_EQ(r.order.size(), 2u);
}

// In kernel mode a control post is one typed record: it draws the
// (time, birth, seq) key at_typed() would, and an action may post more
// actions (its slot is freed before it runs, so the nested post reuses
// it).
TEST(ParallelKernel, KernelModeControlPostKeepsThePlainEventKey) {
  sim::Simulator s;
  test::Recorder r(s);
  sim::ControlPlane ctrl;
  ctrl.bind_kernel(s);
  s.at_typed(100, r.id(1));  // birth 0
  s.run_until(50);
  s.admit_typed(sim::EventKey{100, 20}, r.id(2));  // born before the post
  ctrl.post_at(s, 100, [&] {        // birth 50
    r.order.push_back(3);
    ctrl.post_at(s, 100, [&] { r.order.push_back(5); });  // birth 100
  });
  s.admit_typed(sim::EventKey{100, 70}, r.id(4));  // born after the post
  s.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// A kernel-mode post the kernel rejects (here: no dispatcher registered)
// claims no slot, so the next post reuses slot 0.
std::vector<std::uint32_t> g_fired_slots;
void record_slot(sim::TypedEvent& ev) {
  g_fired_slots.push_back(ev.d);
  sim::ControlPlane::fire(ev);
}

TEST(ParallelKernel, RejectedKernelModePostClaimsNoSlot) {
  g_fired_slots.clear();
  sim::Simulator s;
  sim::ControlPlane ctrl;
  ctrl.bind_kernel(s);
  bool ran = false;
  EXPECT_THROW(ctrl.post_at(s, 10, [&] { ran = true; }), ModelError);
  s.set_typed_dispatcher(&record_slot);
  ctrl.post_at(s, 10, [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(g_fired_slots, (std::vector<std::uint32_t>{0}));
}

// --- lookahead ---------------------------------------------------------

TEST(ParallelKernel, ZeroLookaheadIsACheckedError) {
  sim::Simulator a;
  sim::Simulator b;
  sim::ControlPlane ctrl;
  ctrl.bind_engine({&a, &b});
  const auto make = [&](sim::Time lookahead) {
    return std::make_unique<sim::ShardEngine>(
        std::vector<sim::Simulator*>{&a, &b}, lookahead, ctrl,
        sim::ShardEngine::Options{});
  };
  EXPECT_THROW(make(0), ModelError);
  EXPECT_EQ(make(400)->lookahead(), 400u);
}

// --- boundary handoff ------------------------------------------------

// The parity-buffered outbox: in phase g the producer empties buffer
// g & 1 and appends to it, while the consumer reads phase g - 1's
// records in FIFO order from the other buffer; phase g + 1 refills the
// buffer phase g - 1 filled without reallocating. earliest() is the
// least time pushed in the producer's current phase.
TEST(ParallelKernel, SpscBatchPublishesOncePerWindowInFifoOrder) {
  sim::SpscBatch b;
  const auto push = [&](sim::Time t, int id) {
    b.push(sim::EventKey{t, 0}, 7).d = static_cast<std::uint32_t>(id);
  };
  const auto ids = [](const std::vector<sim::HandoffRecord>& v) {
    std::vector<int> out;
    for (const sim::HandoffRecord& r : v) {
      out.push_back(static_cast<int>(r.ev.d));
    }
    return out;
  };
  b.begin_phase(1);
  EXPECT_EQ(b.earliest(), sim::kTimeNever);
  for (int i = 0; i < 20; ++i) push(static_cast<sim::Time>(1000 - i), i);
  EXPECT_EQ(b.earliest(), 981u);
  // Phase 2: the producer fills the other buffer while the consumer
  // reads phase 1's records.
  b.begin_phase(2);
  push(5000, 100);
  EXPECT_EQ(b.earliest(), 5000u);
  const std::vector<sim::HandoffRecord>& first = b.filled_in(1);
  ASSERT_EQ(first.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(first[i].ev.d, static_cast<std::uint32_t>(i));
    EXPECT_EQ(first[i].order_key, 7u);
  }
  const sim::HandoffRecord* storage = first.data();
  // Phase 3 empties phase 1's buffer, keeping its capacity, and refills
  // it; phase 2's records stay readable until phase 4.
  b.begin_phase(3);
  push(6000, 42);
  EXPECT_EQ(&b.filled_in(3), &first);
  EXPECT_EQ(ids(b.filled_in(3)), (std::vector<int>{42}));
  EXPECT_EQ(b.filled_in(3).data(), storage);
  EXPECT_EQ(ids(b.filled_in(2)), (std::vector<int>{100}));
  // A phase that pushed nothing hands over nothing.
  b.begin_phase(4);
  EXPECT_TRUE(b.filled_in(4).empty());
  EXPECT_EQ(b.earliest(), sim::kTimeNever);
}

// One destination shard fed by two producer shards admits their records
// in (EventKey, order key, FIFO) order: the order one stable sort of
// every record would give, whichever shard sent a record and wherever it
// sits in the push order. The sends cover equal keys on different
// channels, repeated keys within one channel, and births that reorder
// equal times. The destination is a worker thread's shard; batches go
// through the per-phase admission (pushed at 100 and 1100) and through
// the serial admission at the end of run_until (pushed at 2000, the
// final phase of the first call).
TEST(ParallelKernel, PerShardAdmissionKeepsTheGlobalMergeOrder) {
  constexpr sim::Time kW = 1000;
  constexpr std::size_t kDst = 1;
  sim::Simulator k0;
  sim::Simulator k1;
  sim::Simulator k2;
  test::Recorder r0(k0);
  test::Recorder r1(k1);
  test::Recorder r2(k2);
  std::vector<sim::Simulator*> sims{&k0, &k1, &k2};
  sim::ControlPlane ctrl;
  ctrl.bind_engine(sims);
  sim::ShardEngine engine(sims, kW, ctrl, sim::ShardEngine::Options{});

  // Shard 0 owns channels 3 and 5, shard 2 owns channels 4 and 6.
  struct Send {
    sim::Time sent;
    std::size_t src;
    sim::EventKey at;
    std::uint32_t order_key;
  };
  const std::vector<Send> sends = {
      {100, 0, {1500, 0}, 5},  {100, 2, {1200, 90}, 4},
      {100, 0, {1200, 90}, 5}, {100, 0, {1200, 90}, 3},
      {100, 2, {1200, 90}, 4}, {100, 0, {1200, 90}, 3},
      {100, 2, {1200, 90}, 6}, {100, 0, {1200, 20}, 5},
      {100, 2, {1200, 95}, 4}, {100, 2, {1000, 100}, 6},
      {100, 0, {1200, 90}, 3}, {100, 2, {1500, 0}, 4},
      {1100, 2, {2300, 1100}, 6}, {1100, 0, {2300, 1100}, 3},
      {1100, 0, {2100, 1100}, 5}, {1100, 2, {2100, 1100}, 4},
      {1100, 0, {2300, 1100}, 3}, {1100, 2, {2300, 1100}, 6},
      {2000, 2, {3000, 2000}, 4}, {2000, 0, {3000, 2000}, 5},
      {2000, 0, {3000, 2000}, 3}, {2000, 2, {3000, 2000}, 4},
      {2000, 0, {3400, 2000}, 3}, {2000, 2, {3000, 1900}, 6},
  };
  test::Recorder* const recorders[] = {&r0, &r1, &r2};
  for (const sim::Time t : {100, 1100, 2000}) {
    for (const std::size_t src : {0u, 2u}) {
      sims[src]->at_typed(t, recorders[src]->action([&, t, src] {
        for (std::size_t i = 0; i < sends.size(); ++i) {
          if (sends[i].sent != t || sends[i].src != src) continue;
          engine.outbox(src, kDst).push(sends[i].at, sends[i].order_key) =
              r1.id(static_cast<int>(i));
        }
      }));
    }
  }
  engine.run_until(2000);
  engine.run_until(5000);

  std::vector<int> want(sends.size());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = static_cast<int>(i);
  std::stable_sort(want.begin(), want.end(), [&](int x, int y) {
    const Send& a = sends[static_cast<std::size_t>(x)];
    const Send& b = sends[static_cast<std::size_t>(y)];
    if (!(a.at == b.at)) return a.at < b.at;
    return a.order_key < b.order_key;
  });
  EXPECT_EQ(r1.order, want);
}

// The per-record handoff and the unelided window grid are gone: asking
// for either is a checked error at construction, on one shard as on
// many, never a silent fallback — and run_scenario reports it as the
// scenario's error.
TEST(ParallelKernel, PerRecordHandoffIsACheckedError) {
  struct Removed {
    const char* field;
    bool batched_handoff;
    bool elide_windows;
  };
  for (const Removed& rm : {Removed{"batched_handoff", false, true},
                            Removed{"elide_windows", true, false}}) {
    for (const unsigned shards : {1u, 2u}) {
      sim::SimContext ctx;
      noc::NetworkConfig cfg;
      cfg.topology = noc::TopologySpec::mesh(4, 4);
      cfg.shards = shards;
      cfg.batched_handoff = rm.batched_handoff;
      cfg.elide_windows = rm.elide_windows;
      EXPECT_THROW(noc::Network(ctx, cfg), ModelError)
          << rm.field << " shards=" << shards;

      exp::ScenarioSpec spec;
      spec.width = spec.height = 4;
      spec.duration_ps = 10000;
      spec.shards = shards;
      spec.batched_handoff = rm.batched_handoff;
      spec.elide_windows = rm.elide_windows;
      const exp::ScenarioResult r = exp::run_scenario(spec);
      EXPECT_FALSE(r.ok()) << rm.field << " shards=" << shards;
      EXPECT_NE(r.error.find(rm.field), std::string::npos) << r.error;
    }
  }
}

// Elision skips only whole windows no kernel can populate. Four kernels
// each hold one self-rescheduling event: once per lookahead window,
// every window runs; once every third window, two in three are elided,
// and run + elided still counts every window of the grid.
TEST(ParallelKernel, ElisionSkipsOnlyQuietWholeWindows) {
  constexpr sim::Time kW = 1000;
  constexpr std::uint64_t kWindows = 300;
  // Each kernel's one record re-arms itself: p0 = its kernel, d = its
  // period.
  const sim::Simulator::TypedDispatcher tick = [](sim::TypedEvent& ev) {
    auto* kernel = static_cast<sim::Simulator*>(ev.p0);
    kernel->at_typed(kernel->now() + ev.d, ev);
  };
  for (const std::uint64_t every : {1u, 3u}) {
    std::vector<std::unique_ptr<sim::Simulator>> kernels;
    std::vector<sim::Simulator*> sims;
    for (int i = 0; i < 4; ++i) {
      kernels.push_back(std::make_unique<sim::Simulator>());
      sims.push_back(kernels.back().get());
      sims.back()->set_typed_dispatcher(tick);
      sim::TypedEvent ev{};
      ev.op = 1;
      ev.p0 = sims.back();
      ev.d = static_cast<std::uint32_t>(every * kW);
      sims.back()->at_typed(0, ev);
    }
    sim::ControlPlane ctrl;
    ctrl.bind_engine(sims);
    sim::ShardEngine engine(sims, kW, ctrl, sim::ShardEngine::Options{});
    const std::uint64_t events = engine.run_until(kWindows * kW);
    EXPECT_EQ(events, 4 * (kWindows / every + 1)) << "every=" << every;
    EXPECT_EQ(engine.windows_run(), kWindows / every) << "every=" << every;
    EXPECT_EQ(engine.windows_run() + engine.windows_elided(), kWindows)
        << "every=" << every;
  }
}

// --- topology partition ------------------------------------------------

TEST(ParallelKernel, PartitionIsContiguousBalancedAndAnchored) {
  // Equal weights: the load cut is a node-count cut.
  const auto part =
      noc::partition_shards(std::vector<std::uint64_t>(10, 1), 4);
  ASSERT_EQ(part.size(), 10u);
  EXPECT_EQ(part[0], 0u);  // node 0 (the control host) lives in shard 0
  // Contiguous and nondecreasing.
  for (std::size_t i = 1; i < part.size(); ++i) {
    EXPECT_GE(part[i], part[i - 1]);
    EXPECT_LE(part[i] - part[i - 1], 1u);
  }
  // Balanced: 10 nodes over 4 shards, sizes 2 or 3.
  std::vector<unsigned> sizes(4, 0);
  for (const unsigned s : part) ++sizes.at(s);
  for (const unsigned n : sizes) {
    EXPECT_GE(n, 2u);
    EXPECT_LE(n, 3u);
  }
  // Shard count clamps to the node count.
  const auto tiny = noc::partition_shards({1, 1}, 8);
  EXPECT_EQ(tiny, (std::vector<unsigned>{0, 1}));
}

// Unequal weights keep every structural invariant (contiguous
// nondecreasing stripes, node 0 in shard 0, no empty shard, clamp to the
// node count) while placing the cuts by load.
TEST(ParallelKernel, WeightedPartitionBalancesLoadNotNodeCount) {
  // A front-loaded vector: one heavy node, seven light ones. A uniform
  // split would put weight 13 vs 4; the weighted cut isolates the hub.
  const std::vector<std::uint64_t> hub{10, 1, 1, 1, 1, 1, 1, 1};
  const auto part = noc::partition_shards(hub, 2);
  ASSERT_EQ(part.size(), 8u);
  EXPECT_EQ(part[0], 0u);
  for (std::size_t i = 1; i < part.size(); ++i) {
    EXPECT_GE(part[i], part[i - 1]);
    EXPECT_LE(part[i] - part[i - 1], 1u);
  }
  EXPECT_EQ(part[1], 1u);  // the cut lands right after the hub

  // Every shard is non-empty even when the weights say otherwise.
  const std::vector<std::uint64_t> lopsided{100, 1, 1, 1};
  const auto four = noc::partition_shards(lopsided, 4);
  std::vector<unsigned> sizes(4, 0);
  for (const unsigned s : four) ++sizes.at(s);
  for (const unsigned n : sizes) EXPECT_EQ(n, 1u);

  // Trailing zero-weight nodes still get owners (the last stripe runs
  // to the end). An all-zero vector has no load to cut by: a checked
  // error (partition_weights never produces one).
  const auto tail = noc::partition_shards({5, 0, 0, 0}, 2);
  EXPECT_EQ(tail, (std::vector<unsigned>{0, 1, 1, 1}));
  EXPECT_THROW(noc::partition_shards({0, 0, 0, 0}, 2), mango::ModelError);

  // Clamp: more shards than nodes gives every node its own shard.
  const auto tiny = noc::partition_shards({3, 7}, 8);
  EXPECT_EQ(tiny, (std::vector<unsigned>{0, 1}));
}

// partition_weights is a pure function of the topology: wired degree
// plus endpoints per router. On a mesh the interior outweighs the rim;
// concentration lifts every router of a cmesh by its core count.
TEST(ParallelKernel, PartitionWeightsFollowDegreeAndConcentration) {
  const auto mesh = noc::make_topology(noc::TopologySpec::mesh(4, 4));
  const auto w = noc::partition_weights(*mesh);
  ASSERT_EQ(w.size(), 16u);
  EXPECT_EQ(w[0], 3u);   // corner: degree 2 + concentration 1
  EXPECT_EQ(w[1], 4u);   // edge: degree 3 + 1
  EXPECT_EQ(w[5], 5u);   // interior: degree 4 + 1
  const auto cm = noc::make_topology(noc::TopologySpec::cmesh(4, 4, 4));
  const auto cw = noc::partition_weights(*cm);
  ASSERT_EQ(cw.size(), 16u);
  EXPECT_EQ(cw[0], 6u);  // corner: degree 2 + 4 cores
  EXPECT_EQ(cw[5], 8u);  // interior: degree 4 + 4 cores
  // The built-in irregular graph has heterogeneous degrees — the whole
  // point of weighting — so its weights must not be flat.
  const auto g = noc::make_topology(
      noc::TopologySpec::irregular(noc::GraphSpec::irregular(16)));
  const auto gw = noc::partition_weights(*g);
  EXPECT_NE(*std::min_element(gw.begin(), gw.end()),
            *std::max_element(gw.begin(), gw.end()));
}

// --- sweep core budget -------------------------------------------------

TEST(ParallelKernel, EffectiveShardsBudgetsCoresDeterministically) {
  EXPECT_EQ(exp::effective_shards(1, 4, 8), 4u);   // fits: untouched
  EXPECT_EQ(exp::effective_shards(2, 4, 8), 4u);   // exactly fits
  EXPECT_EQ(exp::effective_shards(4, 4, 8), 2u);   // clamp to hw / jobs
  EXPECT_EQ(exp::effective_shards(8, 4, 8), 1u);
  EXPECT_EQ(exp::effective_shards(16, 4, 8), 1u);  // never below 1
  EXPECT_EQ(exp::effective_shards(1, 1, 1), 1u);
  EXPECT_EQ(exp::effective_shards(0, 0, 0), 1u);   // degenerate inputs
}

// --- sharded network plumbing -----------------------------------------

TEST(ParallelKernel, ShardedNetworkPartitionsAndRunsWindows) {
  sim::SimContext ctx;
  noc::NetworkConfig cfg;
  cfg.topology = noc::TopologySpec::mesh(4, 4);
  cfg.shards = 2;
  noc::Network net(ctx, cfg);
  EXPECT_EQ(net.shard_count(), 2u);
  EXPECT_EQ(net.shard_of(0), 0u);
  EXPECT_EQ(net.shard_of(15), 1u);
  EXPECT_GT(net.min_link_latency(), 0u);
  EXPECT_EQ(net.control().deferral(), net.min_link_latency());
  EXPECT_TRUE(net.control().engine_mode());
  net.run_until(100000);
  // An idle fabric is ALL quiet windows: elision jumps the cursor
  // straight to the horizon, counting every window of the grid.
  const sim::Time w = net.min_link_latency();
  EXPECT_EQ(net.windows_run(), 0u);
  EXPECT_EQ(net.windows_elided(), (100000 + w - 1) / w);
}

TEST(ParallelKernel, SingleShardNetworkKeepsTheKernelPath) {
  sim::SimContext ctx;
  noc::NetworkConfig cfg;
  cfg.topology = noc::TopologySpec::mesh(2, 2);
  cfg.shards = 1;
  noc::Network net(ctx, cfg);
  EXPECT_EQ(net.shard_count(), 1u);
  EXPECT_FALSE(net.control().engine_mode());
  EXPECT_EQ(net.windows_run(), 0u);
}

// --- whole-scenario bit-equality --------------------------------------

exp::ScenarioSpec fabric_spec(noc::TopologyKind kind, std::uint64_t seed) {
  exp::ScenarioSpec spec;
  spec.topology = kind;
  spec.width = spec.height = 4;
  spec.router.be_vcs = 2;  // dateline classes for the wrap fabrics
  spec.pattern = noc::BePattern::kUniform;
  spec.be_interarrival_ps = 10000;
  spec.gs_set = noc::GsSetKind::kRing;
  spec.gs_period_ps = 8000;
  spec.duration_ps = 500000;
  spec.seed = seed;
  spec.name = std::string("shards-") + noc::to_string(kind);
  return spec;
}

// The tentpole invariant: every stat of a scenario — BE and GS latency
// quantiles, jitter, event totals, link counters — is bit-identical for
// --shards 1, 2 and 4, on every fabric kind, across seeds. Cross-shard
// events merge in (time, birth, channel, FIFO) order, never wall-clock
// order, so the partition must be unobservable in the numbers.
TEST(ParallelScenario, Shards124AreBitIdenticalOnAllFabrics) {
  for (const noc::TopologyKind kind : noc::all_topology_kinds()) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      exp::ScenarioSpec spec = fabric_spec(kind, seed);
      const exp::ScenarioResult one = run_scenario(spec);
      ASSERT_TRUE(one.ok()) << spec.name << ": " << one.error;
      EXPECT_GT(one.stats.be_packets_delivered, 0u) << spec.name;
      EXPECT_GT(one.stats.gs_flits_delivered, 0u) << spec.name;
      for (const unsigned shards : {2u, 4u}) {
        spec.shards = shards;
        const exp::ScenarioResult n = run_scenario(spec);
        ASSERT_TRUE(n.ok())
            << spec.name << " shards=" << shards << ": " << n.error;
        EXPECT_EQ(n.stats, one.stats)
            << spec.name << " seed=" << seed << " shards=" << shards;
      }
    }
  }
}

// The engine's barrier modes — spin vs condvar — are wall-clock
// strategies only. Both must reproduce the single-kernel stats bit for
// bit on every fabric kind, at 2 and 4 shards.
struct EngineMode {
  const char* tag;
  std::uint32_t spin_us;
  bool force_spin;
};

const EngineMode kEngineModes[] = {
    {"condvar", 0, false},
    // Tiny forced spin budget: exercises the atomic fast path even on
    // machines with fewer cores than shards (where it would normally
    // auto-disable), without burning real time when it misses.
    {"spin", 1, true},
};

TEST(ParallelScenario, EngineModesAreBitIdenticalOnAllFabrics) {
  for (const noc::TopologyKind kind : noc::all_topology_kinds()) {
    exp::ScenarioSpec spec = fabric_spec(kind, 1);
    const exp::ScenarioResult one = run_scenario(spec);
    ASSERT_TRUE(one.ok()) << spec.name << ": " << one.error;
    for (const unsigned shards : {2u, 4u}) {
      for (const EngineMode& m : kEngineModes) {
        spec.shards = shards;
        spec.spin_us = m.spin_us;
        spec.force_spin = m.force_spin;
        const exp::ScenarioResult n = run_scenario(spec);
        ASSERT_TRUE(n.ok()) << spec.name << " shards=" << shards << " "
                            << m.tag << ": " << n.error;
        EXPECT_EQ(n.stats, one.stats)
            << spec.name << " shards=" << shards << " mode=" << m.tag;
      }
    }
  }
}

// Same matrix on a thousand-node rung: mesh-32x32 with table-routed BE
// headers, short horizon. Guards the elision/batching protocol where
// the boundary channel count (and per-window fan-in) is two orders of
// magnitude bigger than the 4x4 fabrics above.
TEST(ParallelScenario, EngineModesAreBitIdenticalOnMesh32) {
  exp::ScenarioSpec spec;
  spec.name = "modes-mesh-32x32";
  spec.topology = noc::TopologyKind::kMesh;
  spec.width = spec.height = 32;
  spec.pattern = noc::BePattern::kUniform;
  spec.be_interarrival_ps = 20000;
  spec.gs_set = noc::GsSetKind::kRing;
  spec.gs_period_ps = 8000;
  spec.duration_ps = 60000;
  const exp::ScenarioResult one = run_scenario(spec);
  ASSERT_TRUE(one.ok()) << one.error;
  EXPECT_GT(one.stats.events, 0u);
  for (const EngineMode& m : kEngineModes) {
    spec.shards = 4;
    spec.spin_us = m.spin_us;
    spec.force_spin = m.force_spin;
    const exp::ScenarioResult n = run_scenario(spec);
    ASSERT_TRUE(n.ok()) << m.tag << ": " << n.error;
    EXPECT_EQ(n.stats, one.stats) << "mode=" << m.tag;
  }
}

// Sharding x runtime connection churn: broker admission, BE-packet
// programming, drain-confirmed closes — the control plane defers every
// cross-shard notification by the same shard-count-independent amount,
// so the full lifecycle reproduces bit for bit.
TEST(ParallelScenario, ChurnIsBitIdenticalAcrossShards) {
  const auto grid = exp::find_preset("gs-churn-4x4");
  ASSERT_TRUE(grid.has_value());
  for (exp::ScenarioSpec spec : grid->expand()) {
    if (spec.topology != noc::TopologyKind::kMesh &&
        spec.topology != noc::TopologyKind::kGraph) {
      continue;  // two fabrics keep the runtime bounded
    }
    spec.duration_ps = 1500000;
    const exp::ScenarioResult one = run_scenario(spec);
    ASSERT_TRUE(one.ok()) << spec.name << ": " << one.error;
    EXPECT_GT(one.stats.churn_requested, 0u) << spec.name;
    for (const unsigned shards : {2u, 4u}) {
      spec.shards = shards;
      const exp::ScenarioResult n = run_scenario(spec);
      ASSERT_TRUE(n.ok())
          << spec.name << " shards=" << shards << ": " << n.error;
      EXPECT_EQ(n.stats, one.stats) << spec.name << " shards=" << shards;
    }
    // Churn is the hardest case for elision: control-plane keys (broker
    // admissions, drain-confirmed closes) bound the horizon jump, so
    // every engine mode must still replay the lifecycle bit for bit.
    if (spec.topology == noc::TopologyKind::kMesh) {
      for (const EngineMode& m : kEngineModes) {
        spec.shards = 4;
        spec.spin_us = m.spin_us;
        spec.force_spin = m.force_spin;
        const exp::ScenarioResult n = run_scenario(spec);
        ASSERT_TRUE(n.ok()) << spec.name << " " << m.tag << ": " << n.error;
        EXPECT_EQ(n.stats, one.stats) << spec.name << " mode=" << m.tag;
      }
    }
  }
}

// The report layer keeps sharding out of the deterministic section:
// stats_json() of a sharded sweep is byte-equal to the single-kernel
// one (this is what CI's shards-1-vs-N cmp checks at scale).
TEST(ParallelScenario, SweepStatsJsonIsByteEqualAcrossShards) {
  exp::SweepGrid g;
  g.base.width = g.base.height = 4;
  g.base.duration_ps = 300000;
  g.base.gs_set = noc::GsSetKind::kRing;
  g.base.gs_period_ps = 8000;
  std::vector<exp::ScenarioSpec> one = g.expand();
  std::vector<exp::ScenarioSpec> four = g.expand();
  for (exp::ScenarioSpec& s : four) s.shards = 4;
  const std::string a = exp::SweepRunner().run(one, 1).stats_json();
  const std::string b = exp::SweepRunner().run(four, 1).stats_json();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The effective shard count and the engine's window counters are
  // reported, but only with timing — never in the comparable stats.
  const auto rep = exp::SweepRunner().run(four, 1);
  EXPECT_NE(rep.full_json().find("\"shards\""), std::string::npos);
  EXPECT_EQ(rep.stats_json().find("\"shards\""), std::string::npos);
  EXPECT_NE(rep.full_json().find("\"windows_run\""), std::string::npos);
  EXPECT_NE(rep.full_json().find("\"windows_elided\""), std::string::npos);
  EXPECT_EQ(rep.stats_json().find("\"windows_run\""), std::string::npos);
  EXPECT_EQ(rep.stats_json().find("\"windows_elided\""), std::string::npos);
}

}  // namespace
}  // namespace mango
