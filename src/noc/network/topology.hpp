// Network topologies: one port-level adjacency table per fabric.
//
// A Topology is a port-level adjacency graph over router nodes: every
// node exposes up to four network ports (the Direction values double as
// port labels on all fabrics — the 2-bit BE header codes address ports,
// not geometry). The constructor builds one dense port table from a
// TopologySpec: per (node, port), the peer's node index and the port the
// link arrives on over there. Each kind is a builder for that table:
//
//   * mesh  — the paper's 2D mesh (no wrap links),
//   * torus — the mesh plus wrap-around links in both dimensions,
//   * ring  — a 1D cycle on the East/West ports,
//   * graph — an arbitrary adjacency from a GraphSpec (degree <= 4,
//             connected; ports assigned in edge order),
//   * cmesh — a concentrated mesh: the mesh's wire table, with k cores
//             per router. The concentration factor lives in the spec and
//             is consumed by the traffic layer (k BE sources per router),
//             quartering router count at k = 4 for the same core count —
//             the standard first rung of the scaling ladder before going
//             hierarchical.
//
// Hierarchical compositions (express-link rings, rings of meshes) are
// GraphSpec builders: they flatten to an irregular adjacency and route
// up*/down*, so a thousand-core fabric needs no new topology kind.
//
// Every consumer reads the one table: link_peer() decodes an entry, the
// Network wires its links from it, and the RouteTable chain walks and the
// deadlock check read adj() directly. Route computation lives in the
// RoutingAlgorithm layer (noc/network/routing.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "noc/common/ids.hpp"

namespace mango::noc {

enum class TopologyKind : std::uint8_t {
  kMesh,
  kTorus,
  kRing,
  kGraph,
  kCMesh,  ///< concentrated mesh: mesh wires + k cores per router
};

const char* to_string(TopologyKind k);
std::optional<TopologyKind> topology_kind_from_string(const std::string& s);
/// The four base fabric families every generic sweep/test iterates.
/// kCMesh is deliberately absent: its wire graph IS a mesh, so listing
/// it would double-run every mesh property; opt in via "cmesh".
std::vector<TopologyKind> all_topology_kinds();

/// Contiguous balanced shard partition over node indices: shard s owns
/// one index range, the first (node_count % shards) shards own one node
/// more. Node indices are row-major on grid fabrics, so ranges become
/// row stripes on mesh/torus (boundary links = the row cuts plus, on a
/// torus, the wrap column) and arcs on a ring. Node index 0 — the
/// connection manager's host — always lands in shard 0. `shards` is
/// clamped to node_count; zero shards is a model error. Returns the
/// shard id of every node index.
std::vector<unsigned> partition_shards(std::size_t node_count,
                                       unsigned shards);

/// Load-weighted variant: stripe boundaries are placed so each shard's
/// share of the total node weight is proportional, not its node count —
/// shard s ends at the smallest index whose weight prefix reaches
/// total * (s+1) / shards, clamped so every stripe is non-empty. Same
/// invariants as the uniform overload (contiguous, node 0 in shard 0,
/// shards clamped to the node count); an all-zero weight vector falls
/// back to the uniform split. Deterministic: the cuts are a pure
/// function of (weights, shards).
std::vector<unsigned> partition_shards(const std::vector<std::uint64_t>& weights,
                                       unsigned shards);

/// Deterministic per-node event-load weights for partition_shards: the
/// wired network degree (transit work — irregular graphs have
/// heterogeneous degrees, mesh edges/corners carry less than the
/// interior) plus the spec's concentration (endpoints per router — a
/// cmesh router injects and ejects for `concentration` cores, so its
/// local-port load scales with it). A pure function of the topology,
/// never of the partition.
class Topology;
std::vector<std::uint64_t> partition_weights(const Topology& topo);

/// An arbitrary undirected adjacency: `edges` between node indices
/// 0..node_count-1. Each node carries at most four edges (one per router
/// port); ports are assigned in edge order (first free port at each
/// endpoint). Self-loops are rejected; parallel edges are allowed.
struct GraphSpec {
  std::uint16_t node_count = 0;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> edges;

  /// Parses "a-b,c-d,..." (node count = max index + 1). ModelError on
  /// malformed input.
  static GraphSpec parse(const std::string& s);

  /// Deterministic built-in irregular fabric: a ternary-tree backbone
  /// (node i hangs off (i-1)/3) plus chords between consecutive leaves,
  /// giving heterogeneous degrees, non-uniform distances and cycles
  /// beyond the tree. Used by the "graph" topology
  /// axis of the sweep CLI and the topologies-4x4 preset.
  static GraphSpec irregular(std::uint16_t nodes);

  /// Hierarchical composition: `meshes` w x h meshes on a ring. Mesh i
  /// occupies indices [i*w*h, (i+1)*w*h) row-major; its south-east
  /// corner (w-1, 0) links to the south-west corner (0, 0) of mesh
  /// (i+1) % meshes. Corners have mesh degree 2, so the ring hop keeps
  /// every node within the four-port budget (max degree 3 at the
  /// stitched corners). Requires meshes >= 2.
  static GraphSpec ring_of_meshes(std::uint16_t meshes, std::uint16_t w,
                                  std::uint16_t h);

  /// Express-link ring: an N-node cycle plus chords of length `hop`
  /// starting at every multiple of `hop` — the classic diameter cut
  /// (O(N / hop + hop) instead of N / 2) at degree <= 4. Requires
  /// 2 <= hop and nodes > 2 * hop.
  static GraphSpec express_ring(std::uint16_t nodes, std::uint16_t hop);
};

/// Value description of a topology (what NetworkConfig carries and the
/// sweep layer puts on its grid axes).
struct TopologySpec {
  TopologyKind kind = TopologyKind::kMesh;
  std::uint16_t width = 2;   ///< mesh/torus X extent; ring/graph: node count
  std::uint16_t height = 2;  ///< mesh/torus Y extent; 1 for ring/graph
  GraphSpec graph;           ///< kGraph only
  /// Cores per router (kCMesh only; 1 everywhere else). Routers — and
  /// node_count() — stay width * height; the traffic layer fans each
  /// router's local port out k ways.
  std::uint16_t concentration = 1;

  static TopologySpec mesh(std::uint16_t w, std::uint16_t h);
  static TopologySpec torus(std::uint16_t w, std::uint16_t h);
  static TopologySpec ring(std::uint16_t nodes);
  static TopologySpec irregular(GraphSpec g);
  static TopologySpec cmesh(std::uint16_t w, std::uint16_t h,
                            std::uint16_t cores_per_router);

  std::size_t node_count() const;
  /// Cores the fabric serves: node_count() * concentration.
  std::size_t core_count() const { return node_count() * concentration; }
  /// Human-readable tag used in scenario names and JSON reports:
  /// "mesh-4x4", "torus-4x4", "ring-16", "graph-16", "cmesh-4x4c4".
  std::string label() const;
};

/// One end of a link as seen from the other: the peer node and the port
/// the link attaches to over there.
struct PortPeer {
  NodeId node;
  PortIdx port = 0;

  friend bool operator==(const PortPeer& a, const PortPeer& b) {
    return a.node == b.node && a.port == b.port;
  }
};

/// The port table of one fabric. Node labels and indices: grid kinds
/// (mesh, torus, cmesh) label nodes {x, y} with x growing East and y
/// growing North, node (0,0) the south-west corner; ring and graph nodes
/// are {i, 0}. Either way the index is y * W + x over a W x H extent —
/// width x height on grids, node_count x 1 on rings and graphs.
class Topology final {
 public:
  /// Builds the port table of `spec`. ModelError on invalid specs.
  explicit Topology(const TopologySpec& spec);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// The spec as its kind's factory spells it (e.g. a graph's width is
  /// its node count, a mesh carries no concentration).
  const TopologySpec& spec() const { return spec_; }
  TopologyKind kind() const { return spec_.kind; }
  std::string label() const { return spec_.label(); }

  std::size_t node_count() const {
    return static_cast<std::size_t>(spec_.width) * spec_.height;
  }
  bool contains(NodeId n) const {
    return n.x < spec_.width && n.y < spec_.height;
  }
  /// Linear index of a member node (ModelError otherwise).
  std::size_t index(NodeId n) const {
    if (!contains(n)) fail_not_member(n);
    return static_cast<std::size_t>(n.y) * spec_.width + n.x;
  }
  /// The node at a linear index (ModelError when out of range).
  NodeId node_at(std::size_t idx) const {
    if (idx >= node_count()) fail_index(idx);
    return NodeId{static_cast<std::uint16_t>(idx % spec_.width),
                  static_cast<std::uint16_t>(idx / spec_.width)};
  }

  /// Unwired-port entry of the port table.
  static constexpr std::uint32_t kNoLink = 0xFFFFFFFFu;
  /// The port table entry of (node index, network port): packed
  /// (peer_index << 2) | arrival_port, kNoLink when the port is unwired.
  /// Unchecked — callers pass a valid index and a network port.
  std::uint32_t adj(std::size_t node_idx, PortIdx port) const {
    return adj_[node_idx * kNumDirections + port];
  }
  /// The link leaving `n` on port `p`, if that port is wired (never the
  /// local port). ModelError when `n` is not a member.
  std::optional<PortPeer> link_peer(NodeId n, PortIdx p) const;
  /// Wired network ports of `n`.
  unsigned degree(NodeId n) const;

  /// End state of applying `moves` (each an out-port) from `src`:
  /// the final node and the port the last hop arrived on. nullopt if a
  /// move names an unwired port, or for an empty move list.
  struct WalkEnd {
    NodeId node;
    PortIdx arrival_port = 0;
  };
  std::optional<WalkEnd> walk(NodeId src,
                              const std::vector<Direction>& moves) const;

  /// True if the move sequence leads from src to dst over wired links;
  /// a move off the fabric (an unwired port) returns false.
  bool route_reaches(NodeId src, NodeId dst,
                     const std::vector<Direction>& moves) const;

 private:
  [[noreturn]] void fail_not_member(NodeId n) const;
  [[noreturn]] static void fail_index(std::size_t idx);
  /// Grid builder (mesh, torus, ring): each node links to its four
  /// coordinate neighbours; with `wrap`, every dimension of extent >= 2
  /// closes into a cycle (a ring's extent-1 y dimension has no links).
  void wire_grid(bool wrap);
  /// Graph builder: edge endpoints take the first free port in spec
  /// order. Rejects self-loops, degree > 4 and disconnected graphs.
  void wire_graph();

  TopologySpec spec_;
  std::vector<std::uint32_t> adj_;
};

/// Heap-allocates the topology described by `spec` (FabricPlan owns one).
/// ModelError on invalid specs.
std::unique_ptr<Topology> make_topology(const TopologySpec& spec);

}  // namespace mango::noc
