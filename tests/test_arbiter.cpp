// Unit + property tests for the link access arbiter (Section 4.4).
#include <gtest/gtest.h>

#include <vector>

#include "noc/router/arbiter.hpp"
#include "sim/context.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {
namespace {

struct ArbiterHarness {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  /// Posts the harness's re-requests as kernel events.
  sim::ControlPlane ctrl;
  RouterConfig cfg;
  StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  std::unique_ptr<LinkArbiter> arb;
  std::vector<std::uint64_t> grants;
  std::uint64_t be_grants = 0;
  /// VCs that re-request immediately after every grant (persistent).
  std::vector<bool> persistent;
  bool be_persistent = false;

  explicit ArbiterHarness(ArbiterKind kind) {
    cfg.arbiter = kind;
    ctrl.bind_kernel(sim);
    arb = std::make_unique<LinkArbiter>(sim, cfg, delays, "test-arb");
    grants.assign(cfg.vcs_per_port, 0);
    persistent.assign(cfg.vcs_per_port, false);
    arb->set_grant_gs([this](VcIdx vc) {
      ++grants[vc];
      arb->set_request_gs(vc, false);
      if (persistent[vc]) {
        ctrl.post_at(sim, sim.now() + 1,
                     [this, vc] { arb->set_request_gs(vc, true); });
      }
    });
    arb->set_grant_be([this] {
      ++be_grants;
      arb->set_request_be(false);
      if (be_persistent) {
        ctrl.post_at(sim, sim.now() + 1,
                     [this] { arb->set_request_be(true); });
      }
    });
  }

  void make_persistent(std::initializer_list<unsigned> vcs) {
    for (unsigned vc : vcs) {
      persistent[vc] = true;
      arb->set_request_gs(static_cast<VcIdx>(vc), true);
    }
  }
};

TEST(LinkArbiter, SingleRequesterGetsEveryGrant) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.make_persistent({3});
  h.sim.run_until(100 * h.delays.arb_cycle);
  EXPECT_GE(h.grants[3], 99u);
  for (unsigned vc = 0; vc < 8; ++vc) {
    if (vc != 3) {
      EXPECT_EQ(h.grants[vc], 0u);
    }
  }
}

TEST(LinkArbiter, GrantsArePacedAtArbCycle) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.make_persistent({0});
  h.sim.run_until(10 * h.delays.arb_cycle);
  // Exactly one grant per arb_cycle window (plus the immediate first).
  EXPECT_GE(h.grants[0], 10u);
  EXPECT_LE(h.grants[0], 11u);
}

/// Property (the fair-share guarantee): with n persistent requesters,
/// every one gets at least floor(total/n) - 1 grants, i.e. >= 1/V of the
/// link when all V request.
class FairShareFairness : public ::testing::TestWithParam<unsigned> {};

TEST_P(FairShareFairness, EqualSplitAmongPersistentRequesters) {
  const unsigned n = GetParam();
  ArbiterHarness h(ArbiterKind::kFairShare);
  for (unsigned vc = 0; vc < n; ++vc) {
    h.persistent[vc] = true;
    h.arb->set_request_gs(static_cast<VcIdx>(vc), true);
  }
  h.sim.run_until(800 * h.delays.arb_cycle);
  std::uint64_t total = 0;
  for (unsigned vc = 0; vc < n; ++vc) total += h.grants[vc];
  EXPECT_GE(total, 799u);  // work conserving
  for (unsigned vc = 0; vc < n; ++vc) {
    EXPECT_GE(h.grants[vc], total / n - 1) << "vc " << vc;
    EXPECT_LE(h.grants[vc], total / n + 1) << "vc " << vc;
  }
}

INSTANTIATE_TEST_SUITE_P(ActiveVcCounts, FairShareFairness,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(LinkArbiter, UnusedSharesRedistribute) {
  // Section 4.4: "If a VC does not use its allocated bandwidth, the link
  // is automatically used by another contending VC."
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.make_persistent({1, 6});
  h.sim.run_until(400 * h.delays.arb_cycle);
  const auto total = h.grants[1] + h.grants[6];
  EXPECT_GE(total, 399u);  // the two VCs share the *full* link
  EXPECT_NEAR(static_cast<double>(h.grants[1]),
              static_cast<double>(h.grants[6]), 2.0);
}

TEST(LinkArbiter, StaticPriorityFavorsLowIndices) {
  ArbiterHarness h(ArbiterKind::kStaticPriority);
  h.make_persistent({0, 7});
  h.sim.run_until(200 * h.delays.arb_cycle);
  // VC0 re-requests 1 ps after each grant — always before the next
  // arbitration — so it monopolizes the link and VC7 starves.
  EXPECT_GE(h.grants[0], 199u);
  EXPECT_LE(h.grants[7], 1u);
}

TEST(LinkArbiter, StaticPriorityServesLowerWhenHighIdles) {
  ArbiterHarness h(ArbiterKind::kStaticPriority);
  h.make_persistent({5});
  h.sim.run_until(50 * h.delays.arb_cycle);
  EXPECT_GE(h.grants[5], 49u);
}

TEST(LinkArbiter, BeIdleSharesPolicyYieldsToGs) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.be_persistent = true;
  h.arb->set_request_be(true);
  h.make_persistent({0, 1, 2, 3, 4, 5, 6, 7});
  h.sim.run_until(400 * h.delays.arb_cycle);
  // All 8 GS VCs saturate: BE gets (almost) nothing.
  EXPECT_LE(h.be_grants, 1u);
  for (unsigned vc = 0; vc < 8; ++vc) {
    EXPECT_GE(h.grants[vc], 400u / 8 - 2);
  }
}

TEST(LinkArbiter, BeIdleSharesPolicyGrantsWhenGsIdle) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.be_persistent = true;
  h.arb->set_request_be(true);
  h.sim.run_until(100 * h.delays.arb_cycle);
  EXPECT_GE(h.be_grants, 99u);
}

TEST(LinkArbiter, CountersAndName) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.make_persistent({2});
  h.sim.run_until(20 * h.delays.arb_cycle);
  EXPECT_EQ(h.arb->name(), "test-arb");
  EXPECT_EQ(h.arb->total_grants(), h.grants[2]);
  EXPECT_EQ(h.arb->grants_gs(2), h.grants[2]);
  EXPECT_EQ(h.arb->grants_be(), 0u);
}

TEST(LinkArbiter, RequestForNonexistentVcThrows) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  EXPECT_THROW(h.arb->set_request_gs(8, true), mango::ModelError);
}

TEST(LinkArbiter, IdempotentRequestUpdates) {
  ArbiterHarness h(ArbiterKind::kFairShare);
  h.arb->set_request_gs(0, false);  // no-op
  h.make_persistent({0});
  h.arb->set_request_gs(0, true);   // duplicate
  h.sim.run_until(5 * h.delays.arb_cycle);
  EXPECT_GE(h.grants[0], 5u);
  EXPECT_LE(h.grants[0], 6u);
}

}  // namespace
}  // namespace mango::noc
