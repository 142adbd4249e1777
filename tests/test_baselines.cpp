// Tests for the comparison baselines (Sections 2, 4.1, 6).
#include <gtest/gtest.h>

#include "baseline/output_buffered_router.hpp"
#include "baseline/tdm_router.hpp"
#include "sim/context.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace mango::baseline {
namespace {

using noc::Flit;
using noc::StageDelays;
using sim::operator""_ns;

TEST(OutputBuffered, UncontendedLatencyIsConstant) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  const StageDelays d = noc::stage_delays(noc::TimingCorner::kWorstCase);
  OutputBufferedRouter router(ctx, 5, d);
  std::vector<sim::Time> latencies;
  router.set_delivery([&](unsigned, Flit&&, sim::Time lat) {
    latencies.push_back(lat);
  });
  // Well-spaced flits from one input: no contention.
  sim::ControlPlane ctrl;
  ctrl.bind_kernel(sim);
  for (int i = 0; i < 10; ++i) {
    ctrl.post_at(sim, static_cast<sim::Time>(i) * 10000,
                 [&router] { router.inject(0, 1, Flit{}); });
  }
  sim.run();
  ASSERT_EQ(latencies.size(), 10u);
  for (const auto lat : latencies) EXPECT_EQ(lat, latencies[0]);
}

TEST(OutputBuffered, ContentionInflatesAndVariesLatency) {
  // Fig 3's flaw: four inputs target one output simultaneously; the
  // later flits queue behind the earlier ones.
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  const StageDelays d = noc::stage_delays(noc::TimingCorner::kWorstCase);
  OutputBufferedRouter router(ctx, 5, d);
  std::vector<sim::Time> latencies;
  router.set_delivery([&](unsigned, Flit&&, sim::Time lat) {
    latencies.push_back(lat);
  });
  for (unsigned in = 0; in < 4; ++in) router.inject(in, 4, Flit{});
  sim.run();
  ASSERT_EQ(latencies.size(), 4u);
  EXPECT_GT(latencies[3], latencies[0]);
  // The queueing penalty is one arbitration cycle per flit ahead.
  EXPECT_EQ(latencies[3] - latencies[0], 3 * d.arb_cycle);
  // The first flit enters service immediately; the other three queue.
  EXPECT_EQ(router.peak_queue_depth(4), 3u);
}

TEST(OutputBuffered, PortBoundsChecked) {
  sim::SimContext ctx;
  const StageDelays d = noc::stage_delays(noc::TimingCorner::kWorstCase);
  OutputBufferedRouter router(ctx, 3, d);
  EXPECT_THROW(router.inject(3, 0, Flit{}), mango::ModelError);
  EXPECT_THROW(router.inject(0, 9, Flit{}), mango::ModelError);
}

struct TdmFixture : ::testing::Test {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  TdmRouter tdm{ctx, /*ports=*/5, /*slots=*/16, /*clock=*/2000};
};

TEST_F(TdmFixture, ReserveAndRelease) {
  EXPECT_EQ(tdm.slots_free(0), 16u);
  EXPECT_TRUE(tdm.reserve(1, 0, 4));
  EXPECT_EQ(tdm.slots_reserved(1), 4u);
  EXPECT_EQ(tdm.slots_free(0), 12u);
  tdm.release(1);
  EXPECT_EQ(tdm.slots_free(0), 16u);
}

TEST_F(TdmFixture, OverbookingFails) {
  EXPECT_TRUE(tdm.reserve(1, 0, 10));
  EXPECT_FALSE(tdm.reserve(2, 0, 7));  // only 6 left
  EXPECT_TRUE(tdm.reserve(3, 0, 6));
}

TEST_F(TdmFixture, BandwidthProportionalToSlots) {
  ASSERT_TRUE(tdm.reserve(1, 0, 4));   // 4/16 of the link
  ASSERT_TRUE(tdm.reserve(2, 1, 8));   // 8/16 of the link
  std::map<std::uint32_t, int> delivered;
  tdm.set_delivery([&](std::uint32_t conn, Flit&&) { ++delivered[conn]; });
  // Keep both queues topped.
  for (int i = 0; i < 600; ++i) {
    tdm.inject(1, Flit{});
    tdm.inject(2, Flit{});
  }
  tdm.start();
  sim.run_until(16 * 2000 * 50);  // 50 table revolutions
  EXPECT_NEAR(delivered[1], 4 * 50, 4);
  EXPECT_NEAR(delivered[2], 8 * 50, 8);
}

TEST_F(TdmFixture, UnusedSlotsAreWastedNotRedistributed) {
  // The contrast with MANGO's work-conserving fair-share (Section 4.4).
  ASSERT_TRUE(tdm.reserve(1, 0, 2));  // 2/16 reserved, rest idle
  int delivered = 0;
  tdm.set_delivery([&](std::uint32_t, Flit&&) { ++delivered; });
  for (int i = 0; i < 1000; ++i) tdm.inject(1, Flit{});
  tdm.start();
  sim.run_until(16 * 2000 * 20);  // 20 revolutions
  // Even though the link is otherwise idle, conn 1 gets only its slots.
  EXPECT_LE(delivered, 2 * 20 + 2);
}

TEST_F(TdmFixture, BandwidthQuantumIsOneOverSlots) {
  EXPECT_DOUBLE_EQ(tdm.bandwidth_quantum(), 1.0 / 16.0);
}

TEST_F(TdmFixture, ErrorsOnProtocolMisuse) {
  EXPECT_THROW(tdm.inject(9, Flit{}), mango::ModelError);
  EXPECT_THROW(tdm.release(9), mango::ModelError);
  EXPECT_THROW(tdm.reserve(0, 0, 1), mango::ModelError);  // id 0 reserved
  ASSERT_TRUE(tdm.reserve(1, 0, 1));
  EXPECT_THROW(tdm.reserve(1, 1, 1), mango::ModelError);  // double reserve
}

}  // namespace
}  // namespace mango::baseline
