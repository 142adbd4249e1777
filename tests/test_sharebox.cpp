// Unit tests for the flow-control boxes (share-based and credit-based).
#include <gtest/gtest.h>

#include "noc/router/sharebox.hpp"
#include "sim/context.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {
namespace {

TEST(Sharebox, LockUnlockCycle) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  Sharebox box(sim, /*rearm_ps=*/100);
  EXPECT_TRUE(box.can_admit());
  box.on_admit();
  EXPECT_FALSE(box.can_admit());
  sim::Time ready_at = 0;
  box.set_on_ready([&] { ready_at = sim.now(); });
  sim::ControlPlane ctrl;
  ctrl.bind_kernel(sim);
  ctrl.post_at(sim, 1000, [&] { box.on_reverse_signal(); });
  sim.run();
  EXPECT_TRUE(box.can_admit());
  EXPECT_EQ(ready_at, 1100u);  // unlock toggle + re-arm delay
}

TEST(Sharebox, DoubleAdmitIsProtocolViolation) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  Sharebox box(sim, 100);
  box.on_admit();
  EXPECT_THROW(box.on_admit(), mango::ModelError);
}

TEST(Sharebox, UnlockWhileUnlockedIsProtocolViolation) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  Sharebox box(sim, 100);
  EXPECT_THROW(box.on_reverse_signal(), mango::ModelError);
}

TEST(Sharebox, AtMostOneFlitInTheMedia) {
  // The defining share-based property: between admit and unlock, no
  // further admit is possible.
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  Sharebox box(sim, 50);
  int admitted = 0;
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(box.can_admit());
    box.on_admit();
    ++admitted;
    ASSERT_FALSE(box.can_admit());  // exactly one in flight
    box.on_reverse_signal();
    sim.run();
  }
  EXPECT_EQ(admitted, 20);
  EXPECT_EQ(box.reverse_signals(), 20u);
}

TEST(CreditBox, AllowsAsManyInFlightAsCredits) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  CreditBox box(sim, 3);
  EXPECT_EQ(box.credits(), 3u);
  box.on_admit();
  box.on_admit();
  box.on_admit();
  EXPECT_FALSE(box.can_admit());
  EXPECT_THROW(box.on_admit(), mango::ModelError);
}

TEST(CreditBox, CreditReturnReenables) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  CreditBox box(sim, 1);
  box.on_admit();
  int ready = 0;
  box.set_on_ready([&] { ++ready; });
  box.on_reverse_signal();
  EXPECT_TRUE(box.can_admit());
  EXPECT_EQ(ready, 1);
}

TEST(CreditBox, OverflowingCreditsIsProtocolViolation) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  CreditBox box(sim, 2);
  EXPECT_THROW(box.on_reverse_signal(), mango::ModelError);
}

TEST(FlowControlFactory, BuildsTheRequestedScheme) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  auto share = make_flow_control(sim, VcScheme::kShareBased, 100, 2);
  auto credit = make_flow_control(sim, VcScheme::kCreditBased, 100, 2);
  ASSERT_NE(dynamic_cast<Sharebox*>(share.get()), nullptr);
  ASSERT_NE(dynamic_cast<CreditBox*>(credit.get()), nullptr);
  // Behavioural difference: a sharebox admits one, a 2-credit box two.
  share->on_admit();
  EXPECT_FALSE(share->can_admit());
  credit->on_admit();
  EXPECT_TRUE(credit->can_admit());
}

}  // namespace
}  // namespace mango::noc
