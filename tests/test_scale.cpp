// Thousand-node scaling: route-table construction properties at 32x32,
// the header-scheme selection rule (packed source route <= 14 hops,
// table-routed beyond), byte-identity of the packed headers with the
// legacy encoder on small fabrics, end-to-end delivery over >14-hop
// routes, and the concentrated-mesh and larger irregular fabrics.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <vector>

#include "exp/scenario.hpp"
#include "noc/common/packet.hpp"
#include "noc/network/network.hpp"
#include "noc/network/routing.hpp"
#include "noc/network/topology.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/assert.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

// Construction cost gate for the 1k-node fabrics: the chain-memoized
// table build is O(n^2) total (not O(n^2 * diameter)), so a 32x32 mesh
// materializes in well under a second in Release. The generous budget
// only catches an accidental return to per-pair route walks, which
// would cost minutes here, without flaking on loaded CI runners.
TEST(ScaleRouteTable, ThousandNodeConstructionStaysInBudget) {
  const Topology topo(TopologySpec::mesh(32, 32));
  const auto routing = make_routing(topo);
  const auto t0 = std::chrono::steady_clock::now();
  const RouteTable table(topo, *routing);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_TRUE(table.dense());
  EXPECT_EQ(table.node_count(), 1024u);
  EXPECT_LT(secs, 10.0) << "route-table construction went quadratic in "
                           "diameter again";
}

// Route tables stop at kDenseNodeLimit nodes, and nothing else routes a
// network: one node more is a checked error at plan build, and a
// scenario on such a fabric reports it instead of crashing.
TEST(ScaleRouteTable, OverDenseLimitIsACheckedError) {
  const std::uint16_t over = RouteTable::kDenseNodeLimit + 1;
  EXPECT_THROW(FabricPlan::build(TopologySpec::ring(over), 2), ModelError);

  exp::ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.width = over;
  spec.height = 1;
  spec.router.be_vcs = 2;
  const exp::ScenarioResult r = exp::run_scenario(spec);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("at most 4096"), std::string::npos) << r.error;
}

// The header-scheme selection rule: a pair is table-routed exactly when
// its route is over the paper's 14-hop source-route budget. On a 32x32
// XY mesh the hop count is the Manhattan distance, so both schemes are
// exercised across the full pair matrix.
TEST(ScaleRouteTable, TableRoutedExactlyWhenOverHeaderBudget) {
  const Topology topo(TopologySpec::mesh(32, 32));
  const auto routing = make_routing(topo);
  const RouteTable table(topo, *routing);
  std::size_t long_routes = 0;
  for (std::size_t s = 0; s < topo.node_count(); ++s) {
    for (std::size_t d = 0; d < topo.node_count(); ++d) {
      if (s == d) continue;
      const unsigned hops = table.hops(s, d);
      EXPECT_EQ(hops, hop_distance(topo.node_at(s), topo.node_at(d)));
      EXPECT_EQ(table.table_routed(s, d), hops > kMaxHeaderCodes - 1)
          << s << "->" << d << " (" << hops << " hops)";
      if (table.table_routed(s, d)) ++long_routes;
    }
  }
  EXPECT_GT(long_routes, 0u) << "a 32x32 mesh must have >14-hop pairs";
}

// The materialized chain walk reproduces a direct walk of the routing's
// next_hop exactly, on every topology kind (phase-carrying up*/down*
// included); on the mesh it is also the reference XY route.
TEST(ScaleRouteTable, AppendMovesMatchesNextHopWalkOnEveryFabric) {
  const std::vector<TopologySpec> specs = {
      TopologySpec::mesh(5, 3),
      TopologySpec::torus(4, 4),
      TopologySpec::ring(7),
      TopologySpec::irregular(GraphSpec::irregular(9)),
      TopologySpec::cmesh(3, 3, 4),
  };
  for (const TopologySpec& spec : specs) {
    const auto topo = make_topology(spec);
    const auto routing = make_routing(*topo);
    const RouteTable table(*topo, *routing);
    ASSERT_TRUE(table.dense()) << spec.label();
    for (std::size_t s = 0; s < topo->node_count(); ++s) {
      for (std::size_t d = 0; d < topo->node_count(); ++d) {
        if (s == d) continue;
        const NodeId src = topo->node_at(s);
        const NodeId dst = topo->node_at(d);
        std::vector<Direction> walk;
        NodeId cur = src;
        unsigned phase = 0;
        while (cur != dst) {
          ASSERT_LE(walk.size(), 2 * topo->node_count())
              << spec.label() << " " << s << "->" << d;
          const NextHop nh = routing->next_hop(cur, dst, phase);
          const auto peer = topo->link_peer(cur, nh.port);
          ASSERT_TRUE(peer.has_value()) << spec.label();
          walk.push_back(direction_of(nh.port));
          cur = peer->node;
          phase = nh.phase;
        }
        std::vector<Direction> mv;
        table.append_moves(s, d, mv);
        EXPECT_EQ(mv, walk) << spec.label() << " " << s << "->" << d;
        if (spec.kind == TopologyKind::kMesh) {
          EXPECT_EQ(mv, xy_route(src, dst))
              << spec.label() << " " << s << "->" << d;
        }
      }
    }
  }
}

// Small fabrics keep the paper's packed source-route header for every
// pair, bit-identical to the legacy per-route encoder — the guarantee
// behind the byte-identical 4x4/8x8 preset reports.
TEST(ScaleRouteTable, PackedHeadersMatchLegacyEncoderOnSmallMeshes) {
  for (const auto& wh : {std::pair<int, int>{4, 4}, {8, 8}}) {
    sim::SimContext ctx;
    NetworkConfig cfg;
    cfg.topology = TopologySpec::mesh(static_cast<std::uint16_t>(wh.first),
                                      static_cast<std::uint16_t>(wh.second));
    Network net(ctx, cfg);
    for (std::size_t s = 0; s < net.node_count(); ++s) {
      for (std::size_t d = 0; d < net.node_count(); ++d) {
        if (s == d) continue;
        for (const LocalIface iface :
             {LocalIface::kNetworkAdapter, LocalIface::kProgramming}) {
          const BeHeader h =
              net.be_header(net.node_at(s), net.node_at(d), iface);
          EXPECT_FALSE(h.table);
          EXPECT_EQ(h.word, build_be_header(net.be_route(
                                net.node_at(s), net.node_at(d), iface)));
        }
      }
    }
  }
}

// A >14-hop BE packet crosses a 16x16 mesh end to end under the
// table-routed scheme: corner to corner is 30 hops, twice the paper's
// source-route ceiling.
TEST(ScaleDelivery, ThirtyHopBePacketDeliveredOnSixteenMesh) {
  sim::SimContext ctx;
  NetworkConfig cfg;
  cfg.topology = TopologySpec::mesh(16, 16);
  Network net(ctx, cfg);
  MeasurementHub hub;
  attach_hub(net, hub);
  const NodeId src{0, 0};
  const NodeId dst{15, 15};
  ASSERT_TRUE(net.be_header(src, dst).table);
  BePacket pkt = make_be_packet(net.be_header(src, dst), {1, 2, 3}, /*tag=*/9);
  net.na(src).send_be_packet(std::move(pkt));
  ctx.sim().run();
  ASSERT_TRUE(hub.has_flow(9));
  EXPECT_EQ(hub.flow(9).packets, 1u);
  EXPECT_EQ(hub.flow(9).seq_errors, 0u);
}

// All-pairs BE delivery on a concentrated mesh: the wire graph is the
// underlying mesh, so every router-to-router route must deliver.
TEST(ScaleDelivery, CMeshAllPairsDelivered) {
  sim::SimContext ctx;
  NetworkConfig cfg;
  cfg.topology = TopologySpec::cmesh(3, 3, 4);
  Network net(ctx, cfg);
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
    EXPECT_EQ(f->seq_errors, 0u);
  }
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(n) * (n - 1));
}

// A concentrated-mesh scenario drives k BE flows per router (one per
// core); the spec layer threads the concentration through and the run
// stays violation-free.
TEST(ScaleDelivery, CMeshScenarioRunsKFlowsPerRouter) {
  exp::ScenarioSpec spec;
  spec.name = "cmesh-smoke";
  spec.topology = TopologyKind::kCMesh;
  spec.width = spec.height = 3;
  spec.concentration = 4;
  spec.pattern = BePattern::kUniform;
  spec.be_interarrival_ps = 16000;
  spec.gs_set = GsSetKind::kNone;
  spec.duration_ps = 400000;
  const exp::ScenarioResult r = exp::run_scenario(spec);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.stats.be_packets_generated, 0u);
  EXPECT_GT(r.stats.be_packets_delivered, 0u);
  EXPECT_EQ(r.stats.guarantee_violations, 0u);
}

// Irregular fabrics past the 16-node sweep size build, wire
// symmetrically, and deliver all-pairs BE traffic under up*/down*
// routing.
TEST(ScaleGraph, IrregularGraphsDeliverAllPairs) {
  for (const std::uint16_t nodes : {27, 40}) {
    const GraphSpec g = GraphSpec::irregular(nodes);
    sim::SimContext ctx;
    NetworkConfig cfg;
    cfg.topology = TopologySpec::irregular(g);
    cfg.router.be_vcs = 2;
    Network net(ctx, cfg);
    MeasurementHub hub;
    attach_hub(net, hub);
    const Topology& topo = net.topology();
    // Wire symmetry of the composed graph.
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      const NodeId n = topo.node_at(i);
      for (PortIdx p = 0; p < kNumDirections; ++p) {
        const auto peer = topo.link_peer(n, p);
        if (!peer.has_value()) continue;
        const auto back = topo.link_peer(peer->node, peer->port);
        ASSERT_TRUE(back.has_value()) << topo.label();
        EXPECT_EQ(back->node, n) << topo.label();
      }
    }
    const std::size_t n = net.node_count();
    std::uint32_t tag = 1;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t d = 0; d < n; ++d) {
        if (s == d) continue;
        BePacket pkt = make_be_packet(
            net.be_route(net.node_at(s), net.node_at(d)),
            {static_cast<std::uint32_t>(s)}, tag++);
        net.na(net.node_at(s)).send_be_packet(std::move(pkt));
      }
    }
    ctx.sim().run();
    std::uint64_t delivered = 0;
    for (const auto& [t, f] : hub.flows_by_tag()) delivered += f->packets;
    EXPECT_EQ(delivered, static_cast<std::uint64_t>(n) * (n - 1))
        << topo.label();
  }
}

}  // namespace
}  // namespace mango::noc
