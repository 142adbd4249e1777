// The paper's claims, asserted on the experiment library against the
// analytic timing and power models. A claim that fails here is a finding
// to write up in DESIGN.md ("Paper claims"), never a bound to widen.
#include <gtest/gtest.h>

#include <cstdio>

#include "exp/paper.hpp"
#include "model/timing.hpp"

namespace mango::exp::paper {
namespace {

using noc::TimingCorner;
constexpr TimingCorner kWorst = TimingCorner::kWorstCase;

/// A counted rate equals `flits_per_ns` when it meets it and exceeds it
/// by at most the one flit a window can count early.
void expect_rate(const Delivered& d, double flits_per_ns) {
  EXPECT_TRUE(meets_rate(d, flits_per_ns)) << d.flits << " flits";
  EXPECT_LE(static_cast<double>(d.flits),
            flits_per_ns * sim::to_ns(d.window_ps) + 1.0);
}

TEST(Claims, E2PortSpeedMatchesTheTimingModelAtBothCorners) {
  const std::vector<PortSpeedRow> rows = port_speed();
  ASSERT_EQ(rows.size(), 2u);
  for (const PortSpeedRow& r : rows) {
    expect_rate(r.link, model::port_speed_mhz(r.corner) / 1000.0);
  }
}

TEST(Claims, E4EveryVcGetsAnEighthOfTheLink) {
  const double eighth = model::fair_share_guarantee_flits_per_ns(kWorst, 8);
  const std::vector<FairShareRow> rows = fair_share();
  ASSERT_EQ(rows.size(), 8u);
  for (const FairShareRow& r : rows) {
    EXPECT_TRUE(meets_rate(r.min_vc, eighth))
        << r.active_vcs << " VCs: " << r.min_vc.flits << " flits";
  }
}

TEST(Claims, E5OneVcCannotFillTheLink) {
  const double link = model::port_speed_mhz(kWorst) / 1000.0;
  for (const SingleVcRow& r : single_vc()) {
    EXPECT_FALSE(meets_rate(r.vc, link)) << r.link_stages << " stages";
    expect_rate(r.vc, model::single_vc_mhz(kWorst, r.link_stages) / 1000.0);
  }
}

TEST(Claims, E7MultiHopThroughputAndLatencyBounds) {
  const double eighth = model::fair_share_guarantee_flits_per_ns(kWorst, 8);
  const std::vector<MultihopRow> rows = multihop();
  ASSERT_EQ(rows.size(), 6u);
  for (const MultihopRow& r : rows) {
    EXPECT_TRUE(meets_rate(r.saturated, eighth)) << r.hops << " hops";
    EXPECT_LE(r.paced_p99,
              sim::to_ns(model::worst_case_latency_ps(kWorst, 8, r.hops)))
        << r.hops << " hops";
    EXPECT_EQ(r.seq_errors, 0u);
  }
}

TEST(Claims, E12IdleNetworkBurnsNoDynamicPower) {
  const std::vector<PowerRow> rows = idle_power();
  ASSERT_EQ(rows.front().gs_period_ps, 0u);
  EXPECT_EQ(rows.front().dynamic_mw, 0.0);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].dynamic_mw, 0.0) << rows[i].load;
  }
}

TEST(Claims, E6GsGuaranteesDoNotDependOnBeLoad) {
  // The probe (0,0)->(3,3) crosses 6 links of the 4x4 mesh.
  const double bound_ns =
      sim::to_ns(model::worst_case_latency_ps(kWorst, 8, 6));
  std::uint64_t worst_seed = 0;
  double worst_ns = 0.0;
  for (std::uint64_t seed : {77u, 78u, 79u}) {
    const std::vector<IndependenceRow> rows = gs_be_independence(seed);
    ASSERT_EQ(rows.front().be_interarrival_ps, 0u);
    const IndependenceRow& idle = rows.front();
    for (const IndependenceRow& r : rows) {
      EXPECT_LE(r.gs.latency_max_ns, bound_ns) << "seed " << seed;
      EXPECT_EQ(r.gs.flits, idle.gs.flits) << "seed " << seed;
      EXPECT_EQ(r.gs.seq_errors, 0u) << "seed " << seed;
      if (r.gs.latency_max_ns > worst_ns) {
        worst_ns = r.gs.latency_max_ns;
        worst_seed = seed;
      }
    }
  }
  std::printf("E6 worst BE seed %llu: GS max %.2f ns against the %.2f ns "
              "bound\n",
              static_cast<unsigned long long>(worst_seed), worst_ns, bound_ns);
}

}  // namespace
}  // namespace mango::exp::paper
