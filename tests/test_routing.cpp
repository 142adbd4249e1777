// The routing layer: per-topology route properties, the checked error
// for a route from a node to itself, the dateline VC-class rule and the
// channel-dependency-graph deadlock validator — including its rejection
// of intentionally cyclic routing functions.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "noc/common/route.hpp"
#include "noc/network/fabric_plan.hpp"
#include "noc/network/network.hpp"
#include "noc/network/routing.hpp"
#include "noc/network/topology.hpp"
#include "sim/context.hpp"
#include "sim/random.hpp"

namespace mango::noc {
namespace {

std::vector<TopologySpec> fuzz_specs() {
  return {
      TopologySpec::mesh(2, 2),
      TopologySpec::mesh(4, 4),
      TopologySpec::mesh(5, 3),
      TopologySpec::mesh(1, 6),
      TopologySpec::torus(2, 2),
      TopologySpec::torus(4, 4),
      TopologySpec::torus(3, 5),
      TopologySpec::ring(2),
      TopologySpec::ring(5),
      TopologySpec::ring(8),
      TopologySpec::irregular(GraphSpec::irregular(8)),
      TopologySpec::irregular(GraphSpec::irregular(16)),
      TopologySpec::irregular(
          GraphSpec{4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}}}),
      TopologySpec::cmesh(3, 3, 4),
  };
}

/// Unrestricted minimal routing: per-destination BFS distance fields,
/// greedy descent with deterministic (port-order) tie-breaks. On cyclic
/// graphs its channel-dependency graph is cyclic in general, so
/// make_routing never installs it: it is the "plausible but
/// deadlock-prone" routing function the validator must reject. Its
/// distance field toward node 0 is the BFS level that orients the links
/// of the up*/down* oracle below.
class ShortestPathRouting : public RoutingAlgorithm {
 public:
  explicit ShortestPathRouting(const Topology& topo)
      : RoutingAlgorithm(topo),
        dist_(topo.node_count(),
              std::vector<unsigned>(topo.node_count(), kUnreached)) {
    for (std::size_t dst = 0; dst < topo.node_count(); ++dst) {
      auto& field = dist_[dst];
      field[dst] = 0;
      std::deque<std::size_t> queue{dst};
      while (!queue.empty()) {
        const std::size_t cur = queue.front();
        queue.pop_front();
        for (PortIdx p = 0; p < kNumDirections; ++p) {
          const auto peer = topo.link_peer(topo.node_at(cur), p);
          if (!peer.has_value()) continue;
          const std::size_t pi = topo.index(peer->node);
          if (field[pi] != kUnreached) continue;
          field[pi] = field[cur] + 1;
          queue.push_back(pi);
        }
      }
    }
  }

  const char* name() const override { return "shortest-path"; }

  NextHop next_hop(NodeId node, NodeId dst, unsigned) const override {
    const auto& field = dist_[topo_.index(dst)];
    const unsigned here = field[topo_.index(node)];
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      const auto peer = topo_.link_peer(node, p);
      if (peer.has_value() && field[topo_.index(peer->node)] + 1 == here) {
        return NextHop{p, 0};
      }
    }
    ADD_FAILURE() << "no descent from " << to_string(node) << " to "
                  << to_string(dst);
    return NextHop{};
  }

  /// Unconstrained link hops from node index `a` to node index `b`.
  unsigned distance(std::size_t a, std::size_t b) const { return dist_[b][a]; }

 private:
  static constexpr unsigned kUnreached = ~0u;
  /// dist_[dst_idx][node_idx] = link hops node -> dst.
  std::vector<std::vector<unsigned>> dist_;
};

/// Appends the minimal moves along one wrap dimension of `extent` nodes
/// from coordinate `a` to `b` (as many as the wrap distance): all one
/// way, and the forward way (`fwd`) at the tie, extent / 2 apart.
void append_wrap_moves(unsigned a, unsigned b, unsigned extent,
                       Direction fwd, Direction back,
                       std::vector<Direction>& out) {
  const unsigned ahead = (b + extent - a) % extent;
  if (ahead <= extent - ahead) {
    out.insert(out.end(), ahead, fwd);
  } else {
    out.insert(out.end(), extent - ahead, back);
  }
}

/// "Up" by the definition of up*/down*: toward the lower (BFS level
/// from node 0, node index).
bool updown_is_up(const ShortestPathRouting& bfs, std::size_t from,
                  std::size_t to) {
  return std::make_pair(bfs.distance(to, 0), to) <
         std::make_pair(bfs.distance(from, 0), from);
}

/// The shortest legal up*/down* hop count from node index `s` to `d`,
/// derived without UpDownRouting: a forward BFS over (node, descending)
/// states, where a route that has taken a down move takes no up move.
unsigned legal_updown_distance(const Topology& topo,
                               const ShortestPathRouting& bfs,
                               std::size_t s, std::size_t d) {
  constexpr unsigned kUnreached = ~0u;
  std::vector<unsigned> dist(2 * topo.node_count(), kUnreached);
  dist[2 * s] = 0;  // state = node * 2 + descending
  std::deque<std::size_t> queue{2 * s};
  while (!queue.empty()) {
    const std::size_t st = queue.front();
    queue.pop_front();
    const std::size_t v = st / 2;
    if (v == d) return dist[st];
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      const auto peer = topo.link_peer(topo.node_at(v), p);
      if (!peer.has_value()) continue;
      const std::size_t u = topo.index(peer->node);
      const bool up = updown_is_up(bfs, v, u);
      if (st % 2 == 1 && up) continue;
      const std::size_t next = 2 * u + (up ? 0 : 1);
      if (dist[next] != kUnreached) continue;
      dist[next] = dist[st] + 1;
      queue.push_back(next);
    }
  }
  ADD_FAILURE() << "no legal up*/down* route " << s << "->" << d;
  return kUnreached;
}

/// The property bundle every (topology, canonical routing) pair must
/// satisfy, checked over fuzzed src/dst pairs of its materialized route
/// table:
///   * the route reaches dst over wired links (topology-aware walk),
///   * its length is RouteTable::hops,
///   * its shape is pinned by a closed form in the test: the XY route
///     on mesh and cmesh (Manhattan length), and on torus and ring the
///     wrap-minimal dimension-ordered route (all X moves before all Y
///     moves, ties forward),
///   * up*/down* routes take no down->up turn, and their length is the
///     shortest legal one (legal_updown_distance),
///   * no hop is a u-turn (the BE delivery code would fire early),
///   * the channel-dependency graph is acyclic.
TEST(RoutingProperties, EveryTopologyRoutingPairFuzzedEndToEnd) {
  for (const TopologySpec& spec : fuzz_specs()) {
    const auto topo = make_topology(spec);
    const auto routing = make_routing(*topo);
    const RouteTable table(*topo, *routing);
    const ShortestPathRouting unconstrained(*topo);

    const DeadlockCheck check = check_deadlock_freedom(
        *topo, *routing, routing->vc_class_map().required_be_vcs());
    EXPECT_TRUE(check.acyclic)
        << topo->label() << "/" << routing->name() << ": " << check.cycle;

    sim::Rng rng(0xF00D + spec.width);
    const std::size_t n = topo->node_count();
    const unsigned pairs = n <= 16 ? 0 : 256;  // small: exhaustive
    const auto check_pair = [&](std::size_t s, std::size_t d) {
      if (s == d) return;
      const NodeId src = topo->node_at(s);
      const NodeId dst = topo->node_at(d);
      const std::string where =
          topo->label() + " " + to_string(src) + "->" + to_string(dst);
      std::vector<Direction> moves;
      table.append_moves(s, d, moves);
      ASSERT_TRUE(topo->route_reaches(src, dst, moves)) << where;
      EXPECT_EQ(moves.size(), table.hops(s, d)) << where;
      std::vector<Direction> dor;  // torus and ring reference route
      switch (spec.kind) {
        case TopologyKind::kMesh:
        case TopologyKind::kCMesh:
          EXPECT_EQ(moves.size(), hop_distance(src, dst)) << where;
          EXPECT_EQ(moves, xy_route(src, dst)) << where;
          break;
        case TopologyKind::kTorus:
          append_wrap_moves(src.x, dst.x, spec.width, Direction::kEast,
                            Direction::kWest, dor);
          append_wrap_moves(src.y, dst.y, spec.height, Direction::kNorth,
                            Direction::kSouth, dor);
          EXPECT_EQ(moves, dor) << where;
          break;
        case TopologyKind::kRing:
          append_wrap_moves(src.x, dst.x, spec.width, Direction::kEast,
                            Direction::kWest, dor);
          EXPECT_EQ(moves, dor) << where;
          break;
        case TopologyKind::kGraph:
          EXPECT_EQ(moves.size(),
                    legal_updown_distance(*topo, unconstrained, s, d))
              << where;
          break;
      }
      // No u-turns (and, on graphs, no down->up turns): walk and compare
      // each out port to the arrival port.
      NodeId cur = src;
      PortIdx in = kLocalPort;
      bool descending = false;
      for (const Direction dir : moves) {
        ASSERT_TRUE(!is_network_port(in) || in != port_of(dir))
            << topo->label() << ": u-turn at " << to_string(cur);
        const auto peer = topo->link_peer(cur, port_of(dir));
        ASSERT_TRUE(peer.has_value());
        if (spec.kind == TopologyKind::kGraph) {
          const bool up = updown_is_up(unconstrained, topo->index(cur),
                                       topo->index(peer->node));
          ASSERT_FALSE(descending && up)
              << where << ": down->up turn at " << to_string(cur);
          descending = descending || !up;
        }
        cur = peer->node;
        in = peer->port;
      }
    };
    if (pairs == 0) {
      for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t d = 0; d < n; ++d) check_pair(s, d);
      }
    } else {
      for (unsigned i = 0; i < pairs; ++i) {
        check_pair(rng.next_below(n), rng.next_below(n));
      }
    }
  }
}

TEST(RoutingProperties, HopDistanceIsWrapAware) {
  const auto torus = make_topology(TopologySpec::torus(4, 4));
  const auto torus_routing = make_routing(*torus);
  const RouteTable torus_table(*torus, *torus_routing);
  // (0,0) -> (3,3) is 6 mesh hops but 2 torus hops (one wrap each way).
  EXPECT_EQ(torus_table.hops(torus->index({0, 0}), torus->index({3, 3})), 2u);
  EXPECT_EQ(hop_distance({0, 0}, {3, 3}), 6u);  // the mesh-only function

  const auto ring = make_topology(TopologySpec::ring(8));
  const auto ring_routing = make_routing(*ring);
  const RouteTable ring_table(*ring, *ring_routing);
  EXPECT_EQ(ring_table.hops(ring->index({0, 0}), ring->index({7, 0})), 1u);
  EXPECT_EQ(ring_table.hops(ring->index({0, 0}), ring->index({4, 0})), 4u);
}

// The mesh-only free step() must fail loudly when fed a wrap move
// instead of silently wrapping the 16-bit coordinate.
TEST(RoutingProperties, FreeStepRejectsCoordinateWraps) {
  EXPECT_THROW(step({0, 0}, Direction::kWest), mango::ModelError);
  EXPECT_THROW(step({0, 0}, Direction::kSouth), mango::ModelError);
  EXPECT_EQ(step({1, 1}, Direction::kWest), (NodeId{0, 1}));
  // Topology::route_reaches tolerates (and fails) such sequences instead.
  const Topology mesh(TopologySpec::mesh(2, 2));
  EXPECT_FALSE(mesh.route_reaches({0, 0}, {0, 0},
                                  {Direction::kWest, Direction::kEast}));
}

// There is no route from a node to itself: a code pointing back the way
// a packet came means local delivery (paper Section 5). Every route
// accessor raises one ModelError naming the node — on cyclic fabrics
// and on a tree and a path alike, and whether or not the node has a
// u-turn-free cycle through it.
TEST(RouteToSelf, IsACheckedErrorOnEveryFabric) {
  const std::vector<TopologySpec> specs = {
      TopologySpec::mesh(4, 4),
      TopologySpec::torus(4, 4),
      TopologySpec::ring(12),
      TopologySpec::irregular(GraphSpec::irregular(16)),
      TopologySpec::cmesh(4, 4, 4),
      TopologySpec::irregular(GraphSpec{4, {{0, 1}, {1, 2}, {1, 3}}}),  // tree
      TopologySpec::mesh(1, 6),                                         // path
  };
  for (const TopologySpec& spec : specs) {
    sim::SimContext ctx;
    NetworkConfig cfg;
    cfg.topology = spec;
    cfg.router.be_vcs = 2;
    const Network net(ctx, cfg);
    const RouteTable& table = net.plan().table();
    for (std::size_t i = 0; i < net.node_count(); ++i) {
      const NodeId n = net.node_at(i);
      const auto expect_self_error = [&](const char* call, auto&& fn) {
        try {
          fn();
          ADD_FAILURE() << spec.label() << " " << call << " at "
                        << to_string(n) << " returned";
        } catch (const mango::ModelError& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("no route from " + to_string(n) + " to itself"),
                    std::string::npos)
              << call << ": " << what;
          EXPECT_NE(what.find("Section 5"), std::string::npos) << what;
        }
      };
      expect_self_error("be_route", [&] { net.be_route(n, n); });
      expect_self_error("be_header", [&] { net.be_header(n, n); });
      std::vector<Direction> moves;
      expect_self_error("append_moves",
                        [&] { table.append_moves(i, i, moves); });
      expect_self_error("delivery_port", [&] { table.delivery_port(i, i); });
      expect_self_error("hops", [&] { table.hops(i, i); });
      expect_self_error("RouteTable::be_header", [&] {
        table.be_header(i, i, LocalIface::kProgramming);
      });
      EXPECT_TRUE(moves.empty()) << spec.label();
    }
    // Distinct endpoints still route.
    EXPECT_GE(net.be_route(net.node_at(0), net.node_at(1)).moves.size(), 1u);
  }
}

// --- the deadlock validator itself ------------------------------------------

/// An intentionally cyclic routing function: always route clockwise
/// (East) around the ring, with no dateline classes. Its channel
/// dependency graph is the full East ring cycle.
class ClockwiseRouting : public RoutingAlgorithm {
 public:
  explicit ClockwiseRouting(const Topology& topo) : RoutingAlgorithm(topo) {}
  const char* name() const override { return "clockwise"; }
  NextHop next_hop(NodeId, NodeId, unsigned) const override {
    return NextHop{port_of(Direction::kEast), 0};
  }
};

TEST(DeadlockValidator, RejectsIntentionallyCyclicRouting) {
  const auto ring = make_topology(TopologySpec::ring(4));
  ClockwiseRouting cyclic(*ring);
  const DeadlockCheck check = check_deadlock_freedom(*ring, cyclic, 2);
  EXPECT_FALSE(check.acyclic);
  EXPECT_NE(check.cycle.find("->"), std::string::npos) << check.cycle;
}

TEST(DeadlockValidator, TorusWithoutSecondBeVcIsCyclic) {
  // The same minimal DOR routing that is valid with dateline classes is
  // correctly reported cyclic when the router config lacks the second
  // BE VC the classes live on.
  const auto torus = make_topology(TopologySpec::torus(4, 4));
  const auto routing = make_routing(*torus);
  EXPECT_TRUE(check_deadlock_freedom(*torus, *routing, 2).acyclic);
  const DeadlockCheck one_vc = check_deadlock_freedom(*torus, *routing, 1);
  EXPECT_FALSE(one_vc.acyclic);
  EXPECT_FALSE(one_vc.cycle.empty());
}

TEST(DeadlockValidator, UnconstrainedShortestPathsOnIrregularGraphRejected) {
  // The "obvious" minimal routing on the built-in irregular fabric is
  // genuinely deadlock-prone — the reason make_routing installs
  // up*/down* there instead.
  const auto topo =
      make_topology(TopologySpec::irregular(GraphSpec::irregular(16)));
  ShortestPathRouting minimal(*topo);
  EXPECT_FALSE(check_deadlock_freedom(*topo, minimal, 1).acyclic);
  UpDownRouting updown(*topo);
  EXPECT_TRUE(check_deadlock_freedom(*topo, updown, 1).acyclic);
}

// The RoutingAlgorithm overload is a forward to the table check, so it
// certifies the very graph a network's plan validates: same verdict,
// same edge count, same insertion digest — including past 512 nodes,
// where a stratified sample would record fewer edges.
TEST(DeadlockValidator, RoutingOverloadCertifiesWhatTheNetworkChecks) {
  const std::vector<TopologySpec> specs = {
      TopologySpec::mesh(4, 4),
      TopologySpec::torus(4, 4),
      TopologySpec::ring(12),
      TopologySpec::irregular(GraphSpec::irregular(16)),
      TopologySpec::cmesh(4, 4, 4),
      TopologySpec::mesh(24, 24),
  };
  for (const TopologySpec& spec : specs) {
    const auto topo = make_topology(spec);
    const auto routing = make_routing(*topo);
    const DeadlockCheck direct = check_deadlock_freedom(*topo, *routing, 2);
    const auto plan = FabricPlan::build(spec, 2);
    const DeadlockCheck& checked = plan->deadlock_certificate();
    EXPECT_EQ(direct.acyclic, checked.acyclic) << spec.label();
    EXPECT_EQ(direct.edges, checked.edges) << spec.label();
    EXPECT_EQ(direct.digest, checked.digest) << spec.label();
  }
}

TEST(DeadlockValidator, NetworkConstructionEnforcesIt) {
  // Wrap fabrics with be_vcs = 1: rejected before any router is built,
  // naming the fabric and the two BE VCs its dateline classes need.
  for (const TopologySpec& spec :
       {TopologySpec::ring(8), TopologySpec::torus(4, 4)}) {
    sim::SimContext ctx;
    NetworkConfig cfg;
    cfg.topology = spec;
    try {
      Network net(ctx, cfg);
      ADD_FAILURE() << spec.label() << " built on one BE VC";
    } catch (const mango::ModelError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(spec.label()), std::string::npos) << what;
      EXPECT_NE(what.find("needs 2 BE VCs"), std::string::npos) << what;
    }
    cfg.router.be_vcs = 2;
    Network net(ctx, cfg);  // with dateline classes it constructs
    EXPECT_EQ(net.node_count(), spec.node_count()) << spec.label();
  }
  // Fabrics without wrap links need no second BE VC.
  for (const TopologySpec& spec :
       {TopologySpec::mesh(4, 4), TopologySpec::cmesh(3, 3, 4),
        TopologySpec::irregular(GraphSpec::irregular(16))}) {
    sim::SimContext ctx;
    NetworkConfig cfg;
    cfg.topology = spec;
    ASSERT_EQ(cfg.router.be_vcs, 1u);
    const Network net(ctx, cfg);
    EXPECT_EQ(net.node_count(), spec.node_count()) << spec.label();
  }
}

// --- dateline VC classes -----------------------------------------------------

TEST(VcClasses, DatelineRuleStepsAsSpecified) {
  // Injection starts at class 0; crossing a dateline promotes to 1; a
  // dimension change resets; staying in-dimension inherits.
  EXPECT_EQ(be_vc_class_step(kLocalPort, Direction::kEast, 0, false), 0u);
  EXPECT_EQ(be_vc_class_step(kLocalPort, Direction::kEast, 0, true), 1u);
  const PortIdx from_west = port_of(Direction::kWest);
  EXPECT_EQ(be_vc_class_step(from_west, Direction::kEast, 1, false), 1u);
  EXPECT_EQ(be_vc_class_step(from_west, Direction::kNorth, 1, false), 0u);
  EXPECT_EQ(be_vc_class_step(from_west, Direction::kNorth, 1, true), 1u);
}

TEST(VcClasses, TorusMapMarksExactlyTheWrapPorts) {
  const auto torus = make_topology(TopologySpec::torus(4, 3));
  const BeVcClassMap map = make_routing(*torus)->vc_class_map();
  ASSERT_TRUE(map.enabled);
  EXPECT_EQ(map.required_be_vcs(), 2u);
  ASSERT_EQ(map.dateline.size(), torus->node_count());
  for (std::size_t i = 0; i < torus->node_count(); ++i) {
    const NodeId n = torus->node_at(i);
    EXPECT_EQ(map.is_dateline(i, port_of(Direction::kEast)), n.x == 3u);
    EXPECT_EQ(map.is_dateline(i, port_of(Direction::kWest)), n.x == 0u);
    EXPECT_EQ(map.is_dateline(i, port_of(Direction::kNorth)), n.y == 2u);
    EXPECT_EQ(map.is_dateline(i, port_of(Direction::kSouth)), n.y == 0u);
  }
  // The ring wraps in x only: East at node n-1 and West at node 0 are
  // its datelines, and its unwired North/South ports carry none.
  const auto ring = make_topology(TopologySpec::ring(6));
  const BeVcClassMap ring_map = make_routing(*ring)->vc_class_map();
  ASSERT_TRUE(ring_map.enabled);
  EXPECT_EQ(ring_map.required_be_vcs(), 2u);
  ASSERT_EQ(ring_map.dateline.size(), ring->node_count());
  for (std::size_t i = 0; i < ring->node_count(); ++i) {
    EXPECT_EQ(ring_map.is_dateline(i, port_of(Direction::kEast)), i == 5u);
    EXPECT_EQ(ring_map.is_dateline(i, port_of(Direction::kWest)), i == 0u);
    EXPECT_FALSE(ring_map.is_dateline(i, port_of(Direction::kNorth)));
    EXPECT_FALSE(ring_map.is_dateline(i, port_of(Direction::kSouth)));
  }
  // Mesh and cmesh routing have no classes.
  for (const TopologySpec& spec :
       {TopologySpec::mesh(4, 4), TopologySpec::cmesh(4, 4, 4)}) {
    const auto topo = make_topology(spec);
    const BeVcClassMap none = make_routing(*topo)->vc_class_map();
    EXPECT_FALSE(none.enabled) << spec.label();
    EXPECT_EQ(none.required_be_vcs(), 1u) << spec.label();
  }
}

}  // namespace
}  // namespace mango::noc
