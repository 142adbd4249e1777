// Whole-network integration tests on a 4x4 mesh.
#include <gtest/gtest.h>

#include "model/timing.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

using sim::operator""_ns;

struct MeshFixture : ::testing::Test {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  NetworkConfig cfg{TopologySpec::mesh(4, 4)};
  Network net{ctx, cfg};
  ConnectionManager mgr{net, NodeId{0, 0}};
  MeasurementHub hub;

  void SetUp() override { attach_hub(net, hub); }
};

TEST_F(MeshFixture, MultiHopConnectionDeliversInOrder) {
  const Connection& conn = mgr.open_direct({0, 0}, {3, 3});
  EXPECT_EQ(conn.link_hops(), 6u);
  GsStreamSource::Options opt;
  opt.max_flits = 300;
  GsStreamSource src(net.na({0, 0}), conn.src_iface, /*tag=*/7, opt);
  src.start();
  sim.run();
  const FlowStats& s = hub.flow(7);
  EXPECT_EQ(s.flits, 300u);
  EXPECT_EQ(s.seq_errors, 0u);
}

TEST_F(MeshFixture, CrossTrafficConnectionsShareLinksFairly) {
  // Three connections all crossing the (0,0)->(1,0) link.
  const Connection& c1 = mgr.open_direct({0, 0}, {3, 0});
  const Connection& c2 = mgr.open_direct({0, 0}, {2, 0});
  const Connection& c3 = mgr.open_direct({0, 0}, {1, 0});
  GsStreamSource::Options sat;  // saturating
  GsStreamSource s1(net.na({0, 0}), c1.src_iface, 1, sat);
  GsStreamSource s2(net.na({0, 0}), c2.src_iface, 2, sat);
  GsStreamSource s3(net.na({0, 0}), c3.src_iface, 3, sat);
  s1.start();
  s2.start();
  s3.start();
  sim.run_until(1000_ns);
  // Three active VCs share the first link round-robin: each delivers
  // about one flit per 3 * arb_cycle. None starves, and shares are even.
  std::uint64_t counts[3];
  for (std::uint32_t tag : {1u, 2u, 3u}) {
    counts[tag - 1] = hub.flow(tag).flits;
    EXPECT_GT(counts[tag - 1], 120u) << "tag " << tag;
  }
  const auto [lo, hi] = std::minmax({counts[0], counts[1], counts[2]});
  EXPECT_LE(hi - lo, hi / 5);  // within 20% of each other
}

TEST_F(MeshFixture, EveryNodePairCanBeConnected) {
  // Open a connection between several scattered pairs and push one flit.
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {{0, 0}, {3, 3}}, {{3, 0}, {0, 3}}, {{1, 2}, {2, 1}}, {{2, 2}, {0, 0}},
      {{3, 3}, {3, 0}}, {{0, 2}, {0, 1}}};
  std::vector<const Connection*> conns;
  std::uint32_t tag = 100;
  for (const auto& [src, dst] : pairs) {
    const Connection& c = mgr.open_direct(src, dst);
    conns.push_back(&c);
    Flit f;
    f.tag = tag++;
    f.injected_at = sim.now();
    net.na(src).gs_send(c.src_iface, f);
  }
  sim.run();
  for (std::uint32_t t = 100; t < 100 + pairs.size(); ++t) {
    EXPECT_EQ(hub.flow(t).flits, 1u) << "tag " << t;
  }
}

TEST_F(MeshFixture, BePacketsReachUniformRandomDestinations) {
  BeTrafficSource::Options opt;
  opt.mean_interarrival_ps = 50000;  // light load
  opt.payload_words = 3;
  opt.max_packets = 40;
  opt.seed = 9;
  BeTrafficSource src(net, {1, 1}, /*tag=*/500, opt);
  src.start();
  sim.run();
  EXPECT_EQ(src.generated(), 40u);
  EXPECT_EQ(hub.flow(500).packets, 40u);
}

TEST_F(MeshFixture, GsAndBeCoexistOnTheSameLinks) {
  const Connection& conn = mgr.open_direct({0, 0}, {3, 0});
  GsStreamSource::Options gopt;
  gopt.max_flits = 200;
  GsStreamSource gs(net.na({0, 0}), conn.src_iface, 1, gopt);
  gs.start();
  auto be_sources =
      start_pattern_be(net, BePattern::kUniform, {}, 20000, 4, 123);
  sim.run_until(600_ns);
  for (auto& s : be_sources) s->stop();
  sim.run_until(5000_ns);
  EXPECT_EQ(hub.flow(1).flits, 200u);
  EXPECT_EQ(hub.flow(1).seq_errors, 0u);
  // BE traffic also flowed.
  std::uint64_t be_packets = 0;
  for (const auto& [tag, s] : hub.flows_by_tag()) {
    if (tag >= kBeTagBase) be_packets += s->packets;
  }
  EXPECT_GT(be_packets, 20u);
}

TEST_F(MeshFixture, PipelinedLinksStillDeliverEverything) {
  sim::SimContext ctx2;
  sim::Simulator& sim2 = ctx2.sim();
  NetworkConfig long_mesh{TopologySpec::mesh(2, 2)};
  long_mesh.link_pipeline_stages = 3;  // 3-stage pipelined links
  Network net2(ctx2, long_mesh);
  ConnectionManager mgr2(net2, NodeId{0, 0});
  MeasurementHub hub2;
  attach_hub(net2, hub2);
  const Connection& conn = mgr2.open_direct({0, 0}, {1, 1});
  GsStreamSource::Options opt;
  opt.max_flits = 100;
  GsStreamSource src(net2.na({0, 0}), conn.src_iface, 3, opt);
  src.start();
  sim2.run();
  EXPECT_EQ(hub2.flow(3).flits, 100u);
  EXPECT_EQ(hub2.flow(3).seq_errors, 0u);
}

TEST_F(MeshFixture, SaturatedLinkReachesPortSpeed) {
  // 8 connections all crossing the (2,1)->(3,1) link eastward, each on
  // its own VC: aggregate = the link issue rate. Destinations are spread
  // because each node has only 4 local output interfaces: the (2,1)
  // sources turn north/south after the link (XY routes x first).
  std::vector<std::unique_ptr<GsStreamSource>> sources;
  std::uint32_t tag = 1;
  auto open = [&](NodeId src_node, NodeId dst_node) {
    const Connection& c = mgr.open_direct(src_node, dst_node);
    GsStreamSource::Options sat;
    sources.push_back(std::make_unique<GsStreamSource>(
        net.na(src_node), c.src_iface, tag++, sat));
    sources.back()->start();
  };
  open({2, 1}, {3, 0});
  open({2, 1}, {3, 0});
  open({2, 1}, {3, 2});
  open({2, 1}, {3, 2});
  for (int i = 0; i < 4; ++i) open({1, 1}, {3, 1});
  const sim::Time window = 2000_ns;
  sim.run_until(window);
  std::uint64_t total = 0;
  for (std::uint32_t t = 1; t < tag; ++t) total += hub.flow(t).flits;
  const double rate = static_cast<double>(total) / sim::to_ns(window);
  const double capacity = model::port_speed_mhz(cfg.router.corner) / 1000.0;
  // Warm-up costs a little; expect > 90% of the port speed.
  EXPECT_GT(rate, 0.9 * capacity);
  EXPECT_LE(rate, 1.01 * capacity);
}

}  // namespace
}  // namespace mango::noc
