// Tests for the network report utility.
#include <gtest/gtest.h>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/network/report.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

using sim::operator""_ns;
using sim::operator""_us;

TEST(NetworkReportTest, IdleNetworkIsAllZero) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  NetworkConfig cfg{TopologySpec::mesh(2, 2)};
  Network net(ctx, cfg);
  sim.run_until(1_us);
  const NetworkReport r = NetworkReport::collect(net, 1_us);
  ASSERT_EQ(r.routers.size(), 4u);
  ASSERT_EQ(r.links.size(), 4u);  // 2x2 mesh: 4 links
  for (const auto& router : r.routers) {
    EXPECT_EQ(router.switch_flits, 0u);
    EXPECT_EQ(router.arb_grants, 0u);
  }
  EXPECT_EQ(r.total_flits_on_links, 0u);
  EXPECT_EQ(r.peak_link_utilization, 0.0);
}

TEST(NetworkReportTest, SaturatedLinkShowsFullUtilization) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  NetworkConfig cfg{TopologySpec::mesh(2, 1)};
  Network net(ctx, cfg);
  ConnectionManager mgr(net, NodeId{0, 0});
  MeasurementHub hub;
  attach_hub(net, hub);
  // Four saturating connections over the single link: aggregate reaches
  // the link issue rate = 50% of the bidirectional capacity.
  for (int i = 0; i < 4; ++i) {
    const Connection& c = mgr.open_direct({0, 0}, {1, 0});
    net.na({0, 0}).set_gs_supplier(c.src_iface, [&sim]() {
      Flit f;
      f.injected_at = sim.now();
      return std::optional<Flit>(f);
    });
  }
  sim.run_until(4_us);
  const NetworkReport r = NetworkReport::collect(net, 4_us);
  EXPECT_NEAR(r.peak_link_utilization, 0.5, 0.03);
  EXPECT_GT(r.total_flits_on_links, 1000u);
  // The sending router's arbiter granted all those flits.
  std::uint64_t grants = 0;
  for (const auto& router : r.routers) grants += router.arb_grants;
  EXPECT_GE(grants, r.total_flits_on_links);
}

TEST(NetworkReportTest, CountsBothTrafficClasses) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  NetworkConfig cfg{TopologySpec::mesh(2, 2)};
  Network net(ctx, cfg);
  ConnectionManager mgr(net, NodeId{0, 0});
  MeasurementHub hub;
  attach_hub(net, hub);
  const Connection& c = mgr.open_direct({0, 0}, {1, 1});
  for (int i = 0; i < 20; ++i) net.na({0, 0}).gs_send(c.src_iface, Flit{});
  net.na({0, 0}).send_be_packet(
      make_be_packet(net.be_route({0, 0}, {1, 0}), {1u, 2u, 3u}));
  sim.run();
  const NetworkReport r = NetworkReport::collect(net, sim.now());
  std::uint64_t sw = 0, be = 0;
  for (const auto& router : r.routers) {
    sw += router.switch_flits;
    be += router.be_flits;
  }
  EXPECT_GT(sw, 0u);
  EXPECT_GT(be, 0u);
  EXPECT_THROW(NetworkReport::collect(net, 0), mango::ModelError);
}

}  // namespace
}  // namespace mango::noc
