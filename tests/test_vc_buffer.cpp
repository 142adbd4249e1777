// Unit tests for the VC buffer (unsharebox + single-flit slot).
#include <gtest/gtest.h>

#include "noc/router/vc_buffer.hpp"
#include "sim/context.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {
namespace {

struct VcBufferFixture : ::testing::Test {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  VcBufferId id{port_of(Direction::kEast), 2};
  VcBuffer buf{sim, delays, VcScheme::kShareBased, id};
  /// Posts test stimuli as kernel events.
  sim::ControlPlane ctrl;
  VcBufferFixture() { ctrl.bind_kernel(sim); }
};

TEST_F(VcBufferFixture, FlitAdvancesToSlotAfterBufAdvance) {
  sim::Time head_at = 0;
  buf.set_on_head([&] { head_at = sim.now(); });
  Flit f;
  f.data = 7;
  ctrl.post_at(sim, 100, [&] { buf.accept_unshare(f); });
  sim.run();
  EXPECT_TRUE(buf.has_head());
  EXPECT_EQ(buf.head().data, 7u);
  EXPECT_EQ(head_at, 100 + delays.buf_advance);
  EXPECT_FALSE(buf.unshare_occupied());
}

TEST_F(VcBufferFixture, ShareBasedReverseFiresOnAdvanceNotPop) {
  int reverse = 0;
  sim::Time reverse_at = 0;
  buf.set_on_reverse([&] {
    ++reverse;
    reverse_at = sim.now();
  });
  buf.accept_unshare(Flit{});
  sim.run();
  EXPECT_EQ(reverse, 1);  // unlock toggled when the flit left the unsharebox
  EXPECT_EQ(reverse_at, delays.buf_advance);
  buf.pop();
  sim.run();
  EXPECT_EQ(reverse, 1);  // pop adds nothing in share-based mode
}

TEST_F(VcBufferFixture, SecondFlitWaitsInUnshareboxWhileSlotFull) {
  buf.accept_unshare(Flit{.data = 1});
  sim.run();
  Flit f2;
  f2.data = 2;
  buf.accept_unshare(f2);
  sim.run();
  // Slot still holds flit 1; flit 2 stalls in the unsharebox (stalling in
  // the buffer, never in the media).
  EXPECT_EQ(buf.head().data, 1u);
  EXPECT_TRUE(buf.unshare_occupied());
  EXPECT_EQ(buf.pop().data, 1u);
  sim.run();
  EXPECT_EQ(buf.head().data, 2u);
  EXPECT_FALSE(buf.unshare_occupied());
}

TEST_F(VcBufferFixture, ImmediateDoubleAcceptThrows) {
  buf.accept_unshare(Flit{});
  // Slot is empty but the unsharebox is occupied until the advance event.
  EXPECT_THROW(buf.accept_unshare(Flit{}), mango::ModelError);
}

TEST_F(VcBufferFixture, PopOnEmptyIsAModelError) {
  EXPECT_THROW(buf.pop(), mango::ModelError);
  EXPECT_THROW(buf.head(), mango::ModelError);
}

TEST_F(VcBufferFixture, CountsFlitsAndPeakOccupancy) {
  buf.accept_unshare(Flit{});
  sim.run();
  buf.accept_unshare(Flit{});
  sim.run();
  EXPECT_EQ(buf.flits_through(), 2u);
  EXPECT_EQ(buf.peak_occupancy(), 2u);  // unsharebox + slot, never more
  buf.pop();
  sim.run();
  buf.pop();
  EXPECT_EQ(buf.peak_occupancy(), 2u);
}

TEST(VcBufferCredit, CreditSchemeSignalsOnPop) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  const StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  VcBuffer buf(sim, delays, VcScheme::kCreditBased,
               VcBufferId{port_of(Direction::kWest), 0});
  int reverse = 0;
  buf.set_on_reverse([&] { ++reverse; });
  buf.accept_unshare(Flit{});
  sim.run();
  EXPECT_EQ(reverse, 0);  // credit returns only when a slot frees
  buf.pop();
  EXPECT_EQ(reverse, 1);
}

TEST(VcBufferOrder, FifoOrderPreserved) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  const StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  VcBuffer buf(sim, delays, VcScheme::kShareBased,
               VcBufferId{port_of(Direction::kNorth), 1});
  std::vector<std::uint32_t> out;
  sim::ControlPlane ctrl;
  ctrl.bind_kernel(sim);
  // Interleave accepts and pops with proper spacing.
  for (std::uint32_t i = 0; i < 10; ++i) {
    ctrl.post_at(sim, i * 5000, [&buf, i] {
      Flit f;
      f.data = i;
      buf.accept_unshare(f);
    });
    ctrl.post_at(sim, i * 5000 + 2000,
                 [&buf, &out] { out.push_back(buf.pop().data); });
  }
  sim.run();
  ASSERT_EQ(out.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

}  // namespace
}  // namespace mango::noc
