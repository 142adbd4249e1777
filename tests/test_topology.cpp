// Unit tests for the topology port tables (mesh, torus, ring, graph,
// cmesh).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "noc/network/topology.hpp"

namespace mango::noc {
namespace {

// Symmetry: if the link on (n, p) arrives at (m, q), the link on (m, q)
// arrives back at (n, p). Holds on every topology kind.
void expect_link_symmetry(const Topology& topo) {
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const NodeId n = topo.node_at(i);
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      const auto peer = topo.link_peer(n, p);
      if (!peer.has_value()) continue;
      const auto back = topo.link_peer(peer->node, peer->port);
      ASSERT_TRUE(back.has_value()) << topo.label();
      EXPECT_EQ(back->node, n) << topo.label();
      EXPECT_EQ(back->port, p) << topo.label();
    }
  }
}

std::optional<NodeId> neighbour(const Topology& topo, NodeId n, Direction d) {
  const auto peer = topo.link_peer(n, port_of(d));
  if (!peer.has_value()) return std::nullopt;
  return peer->node;
}

TEST(TopologyMesh, NodeCountAndIndexing) {
  const Topology topo(TopologySpec::mesh(4, 3));
  EXPECT_EQ(topo.node_count(), 12u);
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    EXPECT_EQ(topo.index(topo.node_at(i)), i);
  }
}

TEST(TopologyMesh, BoundsChecks) {
  const Topology topo(TopologySpec::mesh(3, 3));
  EXPECT_TRUE(topo.contains({2, 2}));
  EXPECT_FALSE(topo.contains({3, 0}));
  EXPECT_FALSE(topo.contains({0, 3}));
  EXPECT_THROW(topo.index({5, 5}), mango::ModelError);
  EXPECT_THROW(topo.node_at(99), mango::ModelError);
}

TEST(TopologyMesh, DegenerateMeshesRejected) {
  EXPECT_THROW(Topology(TopologySpec::mesh(0, 4)), mango::ModelError);
  EXPECT_THROW(Topology(TopologySpec::mesh(4, 0)), mango::ModelError);
}

// A 1x1 mesh is a valid (single-node) graph value, but it has no
// neighbour in any direction.
TEST(TopologyMesh, OneByOneMeshHasNoNeighbours) {
  const Topology topo(TopologySpec::mesh(1, 1));
  EXPECT_EQ(topo.node_count(), 1u);
  EXPECT_EQ(topo.degree({0, 0}), 0u);
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    EXPECT_FALSE(topo.link_peer({0, 0}, p).has_value());
  }
}

TEST(TopologyMesh, InteriorNodeHasFourNeighbors) {
  const Topology topo(TopologySpec::mesh(3, 3));
  const NodeId c{1, 1};
  EXPECT_EQ(neighbour(topo, c, Direction::kNorth), (NodeId{1, 2}));
  EXPECT_EQ(neighbour(topo, c, Direction::kEast), (NodeId{2, 1}));
  EXPECT_EQ(neighbour(topo, c, Direction::kSouth), (NodeId{1, 0}));
  EXPECT_EQ(neighbour(topo, c, Direction::kWest), (NodeId{0, 1}));
}

TEST(TopologyMesh, EdgeNodesHaveNoWraparound) {
  const Topology topo(TopologySpec::mesh(3, 3));
  EXPECT_FALSE(neighbour(topo, {0, 0}, Direction::kWest).has_value());
  EXPECT_FALSE(neighbour(topo, {0, 0}, Direction::kSouth).has_value());
  EXPECT_FALSE(neighbour(topo, {2, 2}, Direction::kEast).has_value());
  EXPECT_FALSE(neighbour(topo, {2, 2}, Direction::kNorth).has_value());
}

TEST(TopologyMesh, NeighborIsSymmetric) {
  expect_link_symmetry(Topology(TopologySpec::mesh(4, 4)));
}

TEST(TopologyMesh, EveryNodeOfATwoByTwoMeshHasTwoNeighbours) {
  const Topology topo(TopologySpec::mesh(2, 2));
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    EXPECT_EQ(topo.degree(topo.node_at(i)), 2u);
  }
}

TEST(TopologyMesh, NodeAtEnumeratesRowMajor) {
  const Topology topo(TopologySpec::mesh(2, 2));
  ASSERT_EQ(topo.node_count(), 4u);
  EXPECT_EQ(topo.node_at(0), (NodeId{0, 0}));
  EXPECT_EQ(topo.node_at(1), (NodeId{1, 0}));
  EXPECT_EQ(topo.node_at(2), (NodeId{0, 1}));
  EXPECT_EQ(topo.node_at(3), (NodeId{1, 1}));
}

TEST(TopologyTorus, EveryPortIsWiredAndWrapsAround) {
  const Topology topo(TopologySpec::torus(4, 3));
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    EXPECT_EQ(topo.degree(topo.node_at(i)), 4u);
  }
  // Wrap links connect the edges.
  const auto east_wrap = topo.link_peer({3, 1}, port_of(Direction::kEast));
  ASSERT_TRUE(east_wrap.has_value());
  EXPECT_EQ(east_wrap->node, (NodeId{0, 1}));
  EXPECT_EQ(east_wrap->port, port_of(Direction::kWest));
  const auto south_wrap = topo.link_peer({2, 0}, port_of(Direction::kSouth));
  ASSERT_TRUE(south_wrap.has_value());
  EXPECT_EQ(south_wrap->node, (NodeId{2, 2}));
  EXPECT_EQ(south_wrap->port, port_of(Direction::kNorth));
  expect_link_symmetry(topo);
}

TEST(TopologyTorus, WidthTwoHasParallelLinksOnDistinctPorts) {
  const Topology topo(TopologySpec::torus(2, 2));
  const auto east = topo.link_peer({0, 0}, port_of(Direction::kEast));
  const auto west = topo.link_peer({0, 0}, port_of(Direction::kWest));
  ASSERT_TRUE(east.has_value() && west.has_value());
  EXPECT_EQ(east->node, (NodeId{1, 0}));
  EXPECT_EQ(west->node, (NodeId{1, 0}));  // same neighbour ...
  EXPECT_NE(east->port, west->port);      // ... two separate links
  expect_link_symmetry(topo);
}

TEST(TopologyTorus, OneDimensionalTorusRejected) {
  EXPECT_THROW(Topology(TopologySpec::torus(1, 4)), mango::ModelError);
  EXPECT_THROW(Topology(TopologySpec::torus(4, 1)), mango::ModelError);
}

TEST(TopologyRing, CycleOnEastWestPorts) {
  const Topology topo(TopologySpec::ring(5));
  EXPECT_EQ(topo.node_count(), 5u);
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const NodeId n = topo.node_at(i);
    EXPECT_EQ(topo.degree(n), 2u);
    EXPECT_FALSE(topo.link_peer(n, port_of(Direction::kNorth)).has_value());
    EXPECT_FALSE(topo.link_peer(n, port_of(Direction::kSouth)).has_value());
  }
  const auto wrap = topo.link_peer({4, 0}, port_of(Direction::kEast));
  ASSERT_TRUE(wrap.has_value());
  EXPECT_EQ(wrap->node, (NodeId{0, 0}));
  expect_link_symmetry(topo);
}

TEST(TopologyRing, RejectsDegenerateRings) {
  EXPECT_THROW(Topology(TopologySpec::ring(0)), mango::ModelError);
  EXPECT_THROW(Topology(TopologySpec::ring(1)), mango::ModelError);
  // A hand-built ring spec whose node count overflows the 16-bit label
  // is an error, not a ring of (count mod 65536) nodes.
  TopologySpec wide = TopologySpec::ring(300);
  wide.height = 300;
  EXPECT_THROW(Topology{wide}, mango::ModelError);
}

TEST(GraphSpec, ParsesEdgeLists) {
  const GraphSpec g = GraphSpec::parse("0-1,1-2,2-3,3-0");
  EXPECT_EQ(g.node_count, 4u);
  ASSERT_EQ(g.edges.size(), 4u);
  EXPECT_EQ(g.edges[0], (std::pair<std::uint16_t, std::uint16_t>{0, 1}));
  EXPECT_THROW(GraphSpec::parse(""), mango::ModelError);
  EXPECT_THROW(GraphSpec::parse("0-"), mango::ModelError);
  EXPECT_THROW(GraphSpec::parse("0-x"), mango::ModelError);
  EXPECT_THROW(GraphSpec::parse("01"), mango::ModelError);
  // 16-bit labels: index 65535 would wrap node_count to 0, and huge
  // numbers must raise ModelError, not std::out_of_range.
  EXPECT_THROW(GraphSpec::parse("0-65535"), mango::ModelError);
  EXPECT_THROW(GraphSpec::parse("0-99999999999999999999"),
               mango::ModelError);
}

TEST(TopologyGraph, PortsAssignedInEdgeOrderAndSymmetric) {
  const Topology topo(TopologySpec::irregular(GraphSpec::parse("0-1,0-2,1-2")));
  EXPECT_EQ(topo.node_count(), 3u);
  EXPECT_EQ(topo.degree({0, 0}), 2u);
  EXPECT_EQ(topo.degree({1, 0}), 2u);
  EXPECT_EQ(topo.degree({2, 0}), 2u);
  // Edge 0-1 got port 0 on both sides; 0-2 got port 1 at node 0.
  const auto first = topo.link_peer({0, 0}, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->node, (NodeId{1, 0}));
  expect_link_symmetry(topo);
}

TEST(TopologyGraph, RejectsBadGraphs) {
  // Degree 5 at node 0.
  GraphSpec star;
  star.node_count = 6;
  for (std::uint16_t i = 1; i < 6; ++i) star.edges.emplace_back(0, i);
  EXPECT_THROW(Topology{TopologySpec::irregular(star)}, mango::ModelError);
  // Self-loop.
  GraphSpec loop;
  loop.node_count = 2;
  loop.edges = {{0, 0}};
  EXPECT_THROW(Topology{TopologySpec::irregular(loop)}, mango::ModelError);
  // Disconnected.
  GraphSpec split;
  split.node_count = 4;
  split.edges = {{0, 1}, {2, 3}};
  EXPECT_THROW(Topology{TopologySpec::irregular(split)}, mango::ModelError);
  // Out-of-range endpoint.
  GraphSpec range;
  range.node_count = 2;
  range.edges = {{0, 5}};
  EXPECT_THROW(Topology{TopologySpec::irregular(range)}, mango::ModelError);
}

TEST(TopologyGraph, BuiltInIrregularFamilyIsValidAtManySizes) {
  for (const std::uint16_t n : {2, 3, 5, 8, 16, 33}) {
    const GraphSpec spec = GraphSpec::irregular(n);
    EXPECT_EQ(spec.node_count, n);
    // Construction checks degree and connectivity.
    const Topology topo(TopologySpec::irregular(spec));
    EXPECT_EQ(topo.node_count(), n);
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      EXPECT_TRUE(seen.insert(topo.index(topo.node_at(i))).second);
    }
    expect_link_symmetry(topo);
  }
}

TEST(TopologySpec, LabelsAndFactory) {
  EXPECT_EQ(TopologySpec::mesh(4, 4).label(), "mesh-4x4");
  EXPECT_EQ(TopologySpec::torus(2, 8).label(), "torus-2x8");
  EXPECT_EQ(TopologySpec::ring(16).label(), "ring-16");
  EXPECT_EQ(TopologySpec::irregular(GraphSpec::irregular(9)).label(),
            "graph-9");
  for (const TopologyKind k : all_topology_kinds()) {
    const auto back = topology_kind_from_string(to_string(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(topology_kind_from_string("hypercube").has_value());
  const auto topo = make_topology(TopologySpec::torus(3, 3));
  EXPECT_EQ(topo->kind(), TopologyKind::kTorus);
  EXPECT_EQ(topo->node_count(), 9u);
}

TEST(Topology, WalkFollowsLinksAndReportsArrivalPort) {
  const Topology topo(TopologySpec::torus(3, 3));
  // East off the wrap edge: (2,0) -> (0,0), arriving on the West port.
  const auto end =
      topo.walk({1, 0}, {Direction::kEast, Direction::kEast});
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(end->node, (NodeId{0, 0}));
  EXPECT_EQ(end->arrival_port, port_of(Direction::kWest));
  EXPECT_TRUE(topo.route_reaches({1, 0}, {0, 0},
                                 {Direction::kEast, Direction::kEast}));
  // A ring has no North links: the walk fails instead of wrapping.
  const Topology ring(TopologySpec::ring(4));
  EXPECT_FALSE(ring.walk({0, 0}, {Direction::kNorth}).has_value());
  EXPECT_FALSE(ring.route_reaches({0, 0}, {1, 0}, {Direction::kNorth}));
}

// --- the port table ----------------------------------------------------------

/// FNV-1a over every (node, port) -> (peer index, arrival port) entry in
/// index and port order; an unwired port folds a sentinel.
std::uint64_t adjacency_digest(const Topology& topo) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      fold(i);
      fold(p);
      const auto peer = topo.link_peer(topo.node_at(i), p);
      if (peer.has_value()) {
        fold(topo.index(peer->node));
        fold(peer->port);
      } else {
        fold(0xFFFFFFFFu);
      }
    }
  }
  return h;
}

// The digests pin every fabric's links (peer and arrival port per
// (node, port)); they were recorded from the per-kind link_peer
// implementations that preceded the port table.
TEST(TopologyAdjacency, TablesMatchRecordedDigests) {
  const std::vector<std::pair<TopologySpec, std::uint64_t>> cases = {
      {TopologySpec::mesh(1, 1), 0x17884906a11cc75bull},
      {TopologySpec::mesh(1, 5), 0x2812fe7efe7dcdc3ull},
      {TopologySpec::mesh(4, 4), 0x0d83715505647d4bull},
      {TopologySpec::mesh(8, 8), 0xf1fb694b6c993323ull},
      {TopologySpec::torus(2, 2), 0x8888f6996ec31d43ull},
      {TopologySpec::torus(2, 5), 0x3011f97a8b21cedbull},
      {TopologySpec::torus(4, 4), 0xb0b3a88766fc9f23ull},
      {TopologySpec::ring(2), 0x7cc79747c4522741ull},
      {TopologySpec::ring(12), 0x1d3bb37e73c34d0bull},
      {TopologySpec::irregular(GraphSpec::irregular(16)),
       0xa82f37e474624335ull},
      {TopologySpec::irregular(GraphSpec::ring_of_meshes(3, 2, 2)),
       0x9b2bb80cf072802cull},
      {TopologySpec::irregular(GraphSpec::express_ring(12, 3)),
       0x5ea50d15cfaf1e24ull},
      {TopologySpec::cmesh(4, 4, 4), 0x0d83715505647d4bull},
  };
  for (const auto& [spec, digest] : cases) {
    EXPECT_EQ(adjacency_digest(Topology(spec)), digest) << spec.label();
  }
}

TEST(TopologyAdjacency, EveryKindIsSymmetricLocalFreeAndChecked) {
  const std::vector<TopologySpec> specs = {
      TopologySpec::mesh(4, 3),
      TopologySpec::torus(3, 4),
      TopologySpec::ring(6),
      TopologySpec::irregular(GraphSpec::irregular(10)),
      TopologySpec::cmesh(3, 2, 4),
  };
  for (const TopologySpec& spec : specs) {
    const Topology topo(spec);
    expect_link_symmetry(topo);
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      EXPECT_FALSE(topo.link_peer(topo.node_at(i), kLocalPort).has_value())
          << topo.label();
    }
    // Just past the extent in x, and one row up on one-row fabrics.
    const NodeId past_x{static_cast<std::uint16_t>(spec.width), 0};
    const NodeId past_y{0, static_cast<std::uint16_t>(spec.height)};
    for (const NodeId outside : {past_x, past_y}) {
      EXPECT_FALSE(topo.contains(outside)) << topo.label();
      EXPECT_THROW(topo.index(outside), mango::ModelError) << topo.label();
      EXPECT_THROW(topo.link_peer(outside, 0), mango::ModelError)
          << topo.label();
    }
    EXPECT_THROW(topo.node_at(topo.node_count()), mango::ModelError)
        << topo.label();
  }
}

// A hand-built graph spec may leave width/height at their defaults: the
// node count (and the index extent) come from the graph itself.
TEST(TopologyAdjacency, HandBuiltGraphSpecTakesItsExtentFromTheGraph) {
  TopologySpec spec;
  spec.kind = TopologyKind::kGraph;
  spec.graph = GraphSpec::irregular(7);
  const Topology topo(spec);
  EXPECT_EQ(topo.node_count(), 7u);
  EXPECT_EQ(topo.spec().width, 7u);
  EXPECT_TRUE(topo.contains({6, 0}));
  EXPECT_FALSE(topo.contains({0, 1}));
  EXPECT_EQ(topo.node_at(6), (NodeId{6, 0}));
}

}  // namespace
}  // namespace mango::noc
