// Unit tests for the flow box under share-based and credit-based control.
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
  FlowBox box(sim, VcScheme::kShareBased, /*sharebox_unlock=*/100);
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
  FlowBox box(sim, VcScheme::kShareBased, 100);
  box.on_admit();
  EXPECT_THROW(box.on_admit(), mango::ModelError);
}

TEST(Sharebox, UnlockWhileUnlockedIsProtocolViolation) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  FlowBox box(sim, VcScheme::kShareBased, 100);
  EXPECT_THROW(box.on_reverse_signal(), mango::ModelError);
}

TEST(Sharebox, AtMostOneFlitInTheMedia) {
  // The defining share-based property: between admit and unlock, no
  // further admit is possible.
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  FlowBox box(sim, VcScheme::kShareBased, 50);
  int admitted = 0;
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(box.can_admit());
    box.on_admit();
    ++admitted;
    ASSERT_FALSE(box.can_admit());  // exactly one in flight
    box.on_reverse_signal();
    ASSERT_FALSE(box.can_admit());  // still locked until the re-arm
    sim.run();
  }
  EXPECT_EQ(admitted, 20);
}

TEST(CreditBox, AllowsAsManyInFlightAsCredits) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  FlowBox box(sim, VcScheme::kCreditBased, 100);
  EXPECT_EQ(box.free_slots(), 2u);
  box.on_admit();
  box.on_admit();
  EXPECT_FALSE(box.can_admit());
  EXPECT_THROW(box.on_admit(), mango::ModelError);
}

TEST(CreditBox, CreditReturnReenables) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  FlowBox box(sim, VcScheme::kCreditBased, 100);
  box.on_admit();
  box.on_admit();
  int ready = 0;
  box.set_on_ready([&] { ++ready; });
  box.on_reverse_signal();  // no re-arm: the credit counts at once
  EXPECT_TRUE(box.can_admit());
  EXPECT_EQ(ready, 1);
  EXPECT_TRUE(sim.idle());
}

TEST(CreditBox, OverflowingCreditsIsProtocolViolation) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  FlowBox box(sim, VcScheme::kCreditBased, 100);
  EXPECT_THROW(box.on_reverse_signal(), mango::ModelError);
}

TEST(FlowBox, EachSchemeYieldsItsSlotTotalAndRearmDelay) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  const FlowBox share(sim, VcScheme::kShareBased, 100);
  const FlowBox credit(sim, VcScheme::kCreditBased, 100);
  EXPECT_EQ(share.slot_total(), 1u);
  EXPECT_EQ(share.rearm_ps(), 100u);
  EXPECT_EQ(credit.slot_total(), 2u);
  EXPECT_EQ(credit.rearm_ps(), 0u);
  EXPECT_EQ(FlowBox::rearm_for(VcScheme::kShareBased, 100), 100u);
  EXPECT_EQ(FlowBox::rearm_for(VcScheme::kCreditBased, 100), 0u);
}

}  // namespace
}  // namespace mango::noc
