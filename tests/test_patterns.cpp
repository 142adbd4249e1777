// Traffic-pattern library: destination-distribution sanity per pattern
// and GS connection-set construction.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/network/topology.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"
#include "sim/random.hpp"

namespace mango::noc {
namespace {

TEST(Patterns, TransposeSwapsCoordinates) {
  const Topology topo(TopologySpec::mesh(4, 4));
  for (std::uint16_t x = 0; x < 4; ++x) {
    for (std::uint16_t y = 0; y < 4; ++y) {
      const auto d = pattern_dst(BePattern::kTranspose, {x, y}, topo);
      if (x == y) {
        EXPECT_FALSE(d.has_value()) << "diagonal must be silent";
      } else {
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(*d, (NodeId{y, x}));
      }
    }
  }
}

TEST(Patterns, TransposeOnNonSquareMeshIsInjective) {
  // The index-permutation form (i -> i*w mod N-1) must stay one-to-one
  // on non-square meshes — no two sources share a destination, so the
  // pattern never degenerates into an accidental hotspot.
  for (const auto& [w, h] : {std::pair<int, int>{4, 2}, {3, 5}, {2, 4}}) {
    const Topology topo(TopologySpec::mesh(static_cast<std::uint16_t>(w),
                                           static_cast<std::uint16_t>(h)));
    std::set<std::size_t> dsts;
    std::size_t silent = 0;
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      const auto d = pattern_dst(BePattern::kTranspose, topo.node_at(i), topo);
      if (!d.has_value()) {
        ++silent;
        continue;
      }
      EXPECT_TRUE(dsts.insert(topo.index(*d)).second)
          << w << "x" << h << ": duplicate destination " << topo.index(*d);
    }
    EXPECT_GE(dsts.size(), topo.node_count() - silent);
  }
}

TEST(Patterns, BitComplementReversesLinearIndex) {
  const Topology topo(TopologySpec::mesh(4, 3));
  const std::size_t n = topo.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId src = topo.node_at(i);
    const auto d = pattern_dst(BePattern::kBitComplement, src, topo);
    if (i == n - 1 - i) {
      EXPECT_FALSE(d.has_value());  // odd node count: center is silent
    } else {
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(topo.index(*d), n - 1 - i);
    }
  }
}

TEST(Patterns, BitComplementIsAPermutationAndSymmetric) {
  const Topology topo(TopologySpec::mesh(4, 4));
  std::set<std::size_t> dsts;
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const NodeId src = topo.node_at(i);
    const auto d = pattern_dst(BePattern::kBitComplement, src, topo);
    ASSERT_TRUE(d.has_value());
    dsts.insert(topo.index(*d));
    // Involution: complement of the complement is the source.
    const auto back = pattern_dst(BePattern::kBitComplement, *d, topo);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, src);
  }
  EXPECT_EQ(dsts.size(), topo.node_count());  // bijective
}

TEST(Patterns, TornadoShiftsHalfway) {
  const Topology topo(TopologySpec::mesh(4, 4));
  const auto d = pattern_dst(BePattern::kTornado, {0, 0}, topo);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, (NodeId{2, 2}));
  const auto e = pattern_dst(BePattern::kTornado, {3, 1}, topo);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, (NodeId{1, 3}));
}

TEST(Patterns, TornadoOnTwoWideMeshReachesNeighbor) {
  const Topology topo(TopologySpec::mesh(2, 2));
  const auto d = pattern_dst(BePattern::kTornado, {0, 1}, topo);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, (NodeId{1, 0}));
}

TEST(Patterns, StochasticPatternsHaveNoFixedDestination) {
  const Topology topo(TopologySpec::mesh(4, 4));
  for (const BePattern p :
       {BePattern::kUniform, BePattern::kHotspot, BePattern::kBursty}) {
    EXPECT_FALSE(pattern_dst(p, {1, 2}, topo).has_value());
  }
}

TEST(Patterns, UniformPickCoversAllOtherNodesEvenly) {
  const Topology topo(TopologySpec::mesh(4, 4));
  const NodeId src{1, 1};
  BePatternOptions opt;
  sim::Rng rng(7);
  std::map<std::size_t, int> counts;
  constexpr int kSamples = 15000;
  for (int i = 0; i < kSamples; ++i) {
    const NodeId d =
        pattern_pick_dst(BePattern::kUniform, src, topo, opt, rng);
    ASSERT_NE(d, src);
    ASSERT_TRUE(topo.contains(d));
    ++counts[topo.index(d)];
  }
  EXPECT_EQ(counts.size(), topo.node_count() - 1);
  const double mean = static_cast<double>(kSamples) / (topo.node_count() - 1);
  for (const auto& [idx, c] : counts) {
    // mean = 1000, sigma ~ 31; +-20% is ~6 sigma with a fixed seed.
    EXPECT_GT(c, 0.8 * mean) << "node index " << idx;
    EXPECT_LT(c, 1.2 * mean) << "node index " << idx;
  }
}

TEST(Patterns, HotspotFractionIsRespected) {
  const Topology topo(TopologySpec::mesh(4, 4));
  BePatternOptions opt;
  opt.hotspot = {3, 3};
  opt.hotspot_fraction = 0.6;
  sim::Rng rng(11);
  const NodeId src{0, 0};
  constexpr int kSamples = 20000;
  int to_hotspot = 0;
  for (int i = 0; i < kSamples; ++i) {
    const NodeId d =
        pattern_pick_dst(BePattern::kHotspot, src, topo, opt, rng);
    ASSERT_NE(d, src);
    if (d == opt.hotspot) ++to_hotspot;
  }
  // The non-hotspot branch can also land on the hotspot (uniform over
  // others), so the expected fraction is p + (1-p)/15.
  const double expected = 0.6 + 0.4 / 15.0;
  const double measured = static_cast<double>(to_hotspot) / kSamples;
  EXPECT_NEAR(measured, expected, 0.02);
}

TEST(Patterns, HotspotSourceAtHotspotFallsBackToUniform) {
  const Topology topo(TopologySpec::mesh(3, 3));
  BePatternOptions opt;
  opt.hotspot = {1, 1};
  sim::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const NodeId d = pattern_pick_dst(BePattern::kHotspot, opt.hotspot, topo,
                                      opt, rng);
    EXPECT_NE(d, opt.hotspot);
  }
}

TEST(Patterns, SupportMatrixPerTopologyFamily) {
  const Topology mesh(TopologySpec::mesh(4, 4));
  const Topology torus(TopologySpec::torus(4, 4));
  const Topology ring(TopologySpec::ring(8));
  const Topology graph(TopologySpec::irregular(GraphSpec::irregular(8)));
  for (const BePattern p : all_be_patterns()) {
    EXPECT_TRUE(pattern_supported(p, mesh)) << to_string(p);
    EXPECT_TRUE(pattern_supported(p, torus)) << to_string(p);
  }
  EXPECT_TRUE(pattern_supported(BePattern::kTornado, ring));
  EXPECT_TRUE(pattern_supported(BePattern::kBitComplement, ring));
  EXPECT_FALSE(pattern_supported(BePattern::kTranspose, ring));
  EXPECT_FALSE(pattern_supported(BePattern::kTranspose, graph));
  EXPECT_FALSE(pattern_supported(BePattern::kTornado, graph));
  EXPECT_TRUE(pattern_supported(BePattern::kUniform, graph));
  EXPECT_TRUE(pattern_supported(BePattern::kHotspot, graph));
}

TEST(Patterns, UnsupportedPatternFailsLoudlyNotSilently) {
  const Topology ring(TopologySpec::ring(8));
  EXPECT_THROW(pattern_dst(BePattern::kTranspose, {0, 0}, ring),
               mango::ModelError);
  sim::SimContext ctx;
  NetworkConfig cfg;
  cfg.topology = TopologySpec::ring(6);
  cfg.router.be_vcs = 2;
  Network net(ctx, cfg);
  BePatternOptions popt;
  EXPECT_THROW(
      start_pattern_be(net, BePattern::kTranspose, popt, 10000, 2, 1),
      mango::ModelError);
}

TEST(Patterns, TornadoOnRingIsTheHalfRingShift) {
  const Topology ring(TopologySpec::ring(8));
  const auto d = pattern_dst(BePattern::kTornado, {1, 0}, ring);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, (NodeId{5, 0}));
  // Bit-complement works on any enumeration, e.g. the irregular graph.
  const Topology graph(TopologySpec::irregular(GraphSpec::irregular(8)));
  const auto c = pattern_dst(BePattern::kBitComplement, {2, 0}, graph);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, (NodeId{5, 0}));
}

TEST(Patterns, TransposeOnTorusMatchesMeshPermutation) {
  const Topology mesh(TopologySpec::mesh(4, 4));
  const Topology torus(TopologySpec::torus(4, 4));
  for (std::size_t i = 0; i < mesh.node_count(); ++i) {
    EXPECT_EQ(pattern_dst(BePattern::kTranspose, mesh.node_at(i), mesh),
              pattern_dst(BePattern::kTranspose, torus.node_at(i), torus));
  }
}

TEST(Patterns, StringRoundTrip) {
  for (const BePattern p : all_be_patterns()) {
    const auto back = be_pattern_from_string(to_string(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(be_pattern_from_string("nope").has_value());
  for (const GsSetKind k : {GsSetKind::kNone, GsSetKind::kRing,
                            GsSetKind::kRandomPairs,
                            GsSetKind::kAllToHotspot}) {
    const auto back = gs_set_from_string(to_string(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
}

TEST(Patterns, PatternSourcesSkipSilentNodes) {
  sim::SimContext ctx;
  Network net(ctx, MeshConfig{3, 3, RouterConfig{}, 1});
  BePatternOptions popt;
  const auto sources = start_pattern_be(net, BePattern::kBitComplement, popt,
                                        20000, 2, /*seed=*/1);
  // 9 nodes, center (index 4) maps to itself -> 8 sources.
  EXPECT_EQ(sources.size(), 8u);
}

TEST(GsSets, RingOpensOneConnectionPerNode) {
  sim::SimContext ctx;
  Network net(ctx, MeshConfig{3, 3, RouterConfig{}, 1});
  ConnectionManager mgr(net, {0, 0});
  const auto eps = open_gs_set(net, mgr, GsSetKind::kRing, GsSetOptions{});
  ASSERT_EQ(eps.size(), 9u);
  for (std::size_t i = 0; i < eps.size(); ++i) {
    EXPECT_EQ(eps[i].src, net.node_at(i));
    EXPECT_EQ(eps[i].dst, net.node_at((i + 1) % 9));
    EXPECT_EQ(eps[i].tag, kGsTagBase + static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(mgr.open_connections(), 9u);
}

TEST(GsSets, RandomPairsAreValidAndDeterministic) {
  GsSetOptions opt;
  opt.pair_count = 6;
  opt.seed = 42;
  std::vector<std::pair<NodeId, NodeId>> first;
  for (int run = 0; run < 2; ++run) {
    sim::SimContext ctx;
    Network net(ctx, MeshConfig{4, 4, RouterConfig{}, 1});
    ConnectionManager mgr(net, {0, 0});
    const auto eps = open_gs_set(net, mgr, GsSetKind::kRandomPairs, opt);
    ASSERT_EQ(eps.size(), 6u);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (const auto& ep : eps) {
      EXPECT_NE(ep.src, ep.dst);
      pairs.emplace_back(ep.src, ep.dst);
    }
    if (run == 0) {
      first = pairs;
    } else {
      EXPECT_EQ(pairs, first);  // same seed -> same set
    }
  }
}

TEST(GsSets, AllToHotspotCapsAtSinkInterfaces) {
  sim::SimContext ctx;
  Network net(ctx, MeshConfig{4, 4, RouterConfig{}, 1});
  ConnectionManager mgr(net, {0, 0});
  GsSetOptions opt;
  opt.hotspot = {2, 2};
  const auto eps = open_gs_set(net, mgr, GsSetKind::kAllToHotspot, opt);
  // The destination NA has local_gs_ifaces (4) sink interfaces; the set
  // opens as many connections as fit and stops cleanly.
  ASSERT_EQ(eps.size(), net.config().router.local_gs_ifaces);
  for (const auto& ep : eps) {
    EXPECT_EQ(ep.dst, opt.hotspot);
    EXPECT_NE(ep.src, opt.hotspot);
  }
}

TEST(GsSets, NoneIsEmpty) {
  sim::SimContext ctx;
  Network net(ctx, MeshConfig{2, 2, RouterConfig{}, 1});
  ConnectionManager mgr(net, {0, 0});
  EXPECT_TRUE(open_gs_set(net, mgr, GsSetKind::kNone, GsSetOptions{}).empty());
}

// Markov-modulated on/off injection: the bursty source must inject
// measurably clumpier traffic than an unmodulated source of the same
// mean rate, while staying deterministic per seed.
TEST(Patterns, BurstySourceAlternatesPhases) {
  auto run = [](bool bursty) {
    sim::SimContext ctx;
    Network net(ctx, MeshConfig{2, 2, RouterConfig{}, 1});
    BeTrafficSource::Options opt;
    opt.mean_interarrival_ps = 20000;  // light load: no backpressure skew
    opt.payload_words = 1;
    opt.seed = 5;
    if (bursty) {
      opt.burst_on_mean_ps = 40000;
      opt.burst_off_mean_ps = 120000;
    }
    BeTrafficSource src(net, {0, 0}, 1, opt);
    src.start();
    ctx.run_until(5000000);
    return src.generated();
  };
  const std::uint64_t plain = run(false);
  const std::uint64_t bursty = run(true);
  EXPECT_GT(plain, 0u);
  EXPECT_GT(bursty, 0u);
  // OFF phases pause the arrival process: with mean on 40us / off 120us
  // the bursty source injects roughly a quarter of the packets in the
  // same horizon.
  EXPECT_LT(bursty, plain / 2);
}

}  // namespace
}  // namespace mango::noc
