// End-to-end traffic on the non-mesh fabrics: BE source routing (wrap
// links, arbitrary arrival ports, dateline VC classes) and GS
// connections (hop-by-hop VC reservation along the new paths), both by
// direct programming and by BE programming packets.
#include <gtest/gtest.h>

#include <map>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/network/report.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

using sim::operator""_us;

NetworkConfig config_for(TopologySpec spec, unsigned be_vcs) {
  NetworkConfig cfg;
  cfg.topology = std::move(spec);
  cfg.router.be_vcs = be_vcs;
  return cfg;
}

std::vector<TopologySpec> fabric_specs() {
  return {
      TopologySpec::torus(3, 3),
      TopologySpec::torus(2, 2),
      TopologySpec::ring(6),
      TopologySpec::irregular(GraphSpec::irregular(9)),
      TopologySpec::irregular(GraphSpec::parse("0-1,1-2,2-3,3-0,1-3")),
  };
}

// Every node sends one BE packet to every other node; all must arrive
// intact (tests header encoding with topology-reported delivery ports).
TEST(TopologyNetwork, BeAllPairsDeliveredOnEveryFabric) {
  for (const TopologySpec& spec : fabric_specs()) {
    sim::SimContext ctx;
    Network net(ctx, config_for(spec, 2));
    MeasurementHub hub;
    attach_hub(net, hub);
    const std::size_t n = net.node_count();
    std::uint32_t tag = 1;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t d = 0; d < n; ++d) {
        if (s == d) continue;
        BePacket pkt = make_be_packet(
            net.be_route(net.node_at(s), net.node_at(d)),
            {static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(d)},
            tag++);
        net.na(net.node_at(s)).send_be_packet(std::move(pkt));
      }
    }
    ctx.sim().run();
    std::uint64_t delivered = 0;
    for (const auto& [t, f] : hub.flows_by_tag()) {
      delivered += f->packets;
      EXPECT_EQ(f->seq_errors, 0u) << net.topology().label();
    }
    EXPECT_EQ(delivered, static_cast<std::uint64_t>(n) * (n - 1))
        << net.topology().label();
  }
}

// GS connections by direct programming: a stream over a wrap link (and
// over arbitrary graph ports) arrives in order at full offered rate.
TEST(TopologyNetwork, GsStreamsAcrossWrapAndGraphPaths) {
  for (const TopologySpec& spec : fabric_specs()) {
    sim::SimContext ctx;
    Network net(ctx, config_for(spec, 2));
    MeasurementHub hub;
    attach_hub(net, hub);
    ConnectionManager mgr(net, net.node_at(0));
    // The pair with the longest route in the fabric exercises the most
    // hops; node 0 to the farthest node always crosses interesting links.
    const RouteTable& table = net.plan().table();
    std::size_t far = 1;
    for (std::size_t i = 1; i < net.node_count(); ++i) {
      if (table.hops(0, i) > table.hops(0, far)) far = i;
    }
    const Connection& conn = mgr.open_direct(net.node_at(0), net.node_at(far));
    GsStreamSource gen(net.na(net.node_at(0)), conn.src_iface, /*tag=*/7, {});
    gen.start();
    ctx.run_until(1_us);
    ASSERT_TRUE(hub.has_flow(7)) << net.topology().label();
    const FlowStats& f = hub.flow(7);
    EXPECT_GT(f.flits, 100u) << net.topology().label();
    EXPECT_EQ(f.seq_errors, 0u) << net.topology().label();
  }
}

// GS setup via BE programming packets works on wrap fabrics, with the
// host's own router programmed through its local programming port.
TEST(TopologyNetwork, GsSetupViaPacketsOnTorus) {
  sim::SimContext ctx;
  Network net(ctx, config_for(TopologySpec::torus(3, 3), 2));
  MeasurementHub hub;
  attach_hub(net, hub);
  ConnectionManager mgr(net, net.node_at(0));
  bool ready = false;
  // src == host: hop 0 lives on the host's own router, which the host
  // programs locally; the other routers get BE programming packets.
  mgr.open_via_packets({0, 0}, {2, 2},
                       [&ready](const Connection& c) {
                         ready = true;
                         EXPECT_TRUE(c.ready());
                       });
  ctx.run_until(2_us);
  EXPECT_TRUE(ready);
}

TEST(TopologyNetwork, GsRingSetSpansEveryFabric) {
  for (const TopologySpec& spec : fabric_specs()) {
    sim::SimContext ctx;
    Network net(ctx, config_for(spec, 2));
    ConnectionManager mgr(net, net.node_at(0));
    const auto eps =
        open_gs_set(net, mgr, GsSetKind::kRing, GsSetOptions{});
    EXPECT_EQ(eps.size(), net.node_count()) << net.topology().label();
  }
}

// The dateline rule must not break BE packet coherency: saturating
// opposing flows across the torus wrap (vc promotions on both rings)
// deliver with zero sequence errors.
TEST(TopologyNetwork, DatelineCrossingsKeepPacketsCoherent) {
  sim::SimContext ctx;
  Network net(ctx, config_for(TopologySpec::torus(4, 4), 2));
  MeasurementHub hub;
  attach_hub(net, hub);
  std::vector<std::unique_ptr<BeTrafficSource>> sources;
  // Tornado on a torus: every route takes the minimal wrap-heavy path.
  const auto started = start_pattern_be(net, BePattern::kTornado,
                                        BePatternOptions{}, /*ia=*/2000,
                                        /*payload=*/4, /*seed=*/3);
  ctx.run_until(2_us);
  std::uint64_t delivered = 0;
  for (const auto& [t, f] : hub.flows_by_tag()) {
    delivered += f->packets;
    EXPECT_EQ(f->seq_errors, 0u);
  }
  EXPECT_GT(delivered, 100u);
}

// The network report names the fabric it was collected on.
TEST(TopologyNetwork, ReportIdentifiesTheTopology) {
  sim::SimContext ctx;
  Network net(ctx, config_for(TopologySpec::ring(4), 2));
  ctx.run_until(1000);
  const NetworkReport rep = NetworkReport::collect(net, 1000);
  EXPECT_EQ(rep.topology, "ring-4");
  // A ring of 4 has exactly 4 links.
  EXPECT_EQ(rep.links.size(), 4u);
}

}  // namespace
}  // namespace mango::noc
