// Routing algorithms over pluggable topologies.
//
// A RoutingAlgorithm turns (src, dst) into the out-port move sequence
// the source-routed BE header encodes and the GS connection manager
// walks when it reserves VCs hop by hop. Implementations:
//
//   * XyRouting            — dimension-ordered XY on the mesh (the
//                            paper's scheme; acyclic by monotonicity),
//   * TorusDorRouting      — minimal dimension-ordered routing on the
//                            torus; wrap rings are broken by a dateline
//                            VC-class scheme (packets start a dimension
//                            on BE VC 0 and are promoted to VC 1 when
//                            crossing the wrap link), so it requires two
//                            BE VCs,
//   * RingRouting          — the 1D case of the same scheme,
//   * UpDownRouting        — shortest-path table routing for irregular
//                            graphs, restricted to up*/down* turns over
//                            a BFS spanning order (up edges point toward
//                            the root level). Pure minimal routing on an
//                            irregular graph is NOT deadlock-free in
//                            general — ShortestPathRouting below exists
//                            as exactly that counterexample and the
//                            validator rejects it.
//
// Deadlock freedom is not taken on faith: check_deadlock_freedom()
// builds the channel-dependency graph of (topology, routing, VC-class
// rule) and reports the first cycle, and Network construction rejects
// cyclic routing functions up front.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "noc/common/ids.hpp"
#include "noc/common/packet.hpp"
#include "noc/common/route.hpp"
#include "noc/network/topology.hpp"

namespace mango::noc {

/// Where the BE VC-class (dateline) rule applies: per node, which out
/// ports cross a dateline. `enabled == false` (mesh, irregular graphs)
/// means flits keep their injected BE VC — the paper's baseline
/// behaviour.
struct BeVcClassMap {
  bool enabled = false;
  /// dateline[node_index][out_port]
  std::vector<std::array<bool, kNumDirections>> dateline;

  bool is_dateline(std::size_t node_idx, PortIdx out) const {
    return enabled && dateline[node_idx][out];
  }
};

/// One step of a route as a (node, phase) state transition: the out
/// port to take and the routing phase after the hop. Phase is the one
/// bit of route state a header must carry for routings whose next hop
/// depends on history (up*/down*: 0 = may still climb, 1 = descending
/// only); memoryless routings keep it 0 throughout.
struct NextHop {
  PortIdx port = 0;
  std::uint8_t phase = 0;
};

class RoutingAlgorithm {
 public:
  explicit RoutingAlgorithm(const Topology& topo) : topo_(topo) {}
  virtual ~RoutingAlgorithm() = default;

  RoutingAlgorithm(const RoutingAlgorithm&) = delete;
  RoutingAlgorithm& operator=(const RoutingAlgorithm&) = delete;

  virtual const char* name() const = 0;

  /// Out-port move sequence from src to dst (src != dst). Every
  /// implementation guarantees: the route reaches dst over wired links,
  /// and no intermediate hop leaves by its arrival port (a u-turn would
  /// read as the local-delivery code).
  virtual std::vector<Direction> route(NodeId src, NodeId dst) const = 0;

  /// One step of route(node, dst) from `node` in routing phase `phase`
  /// (node != dst). The contract that makes RouteTable's O(n^2) chain
  /// construction exact: every route() is the greedy walk of its own
  /// next_hop over (node, phase) states — route(s, d) = next_hop step at
  /// s, then route continues as the walk from the successor state. The
  /// base implementation re-derives the first move of route() (correct
  /// for any phase-free routing, O(route length)); implementations
  /// override it with an O(ports) or O(1) step.
  virtual NextHop next_hop(NodeId node, NodeId dst, unsigned phase) const {
    (void)phase;
    return NextHop{port_of(route(node, dst).front()), 0};
  }

  /// Link hops between two nodes under this routing (wrap-aware; the
  /// topology-correct replacement for the mesh-only free hop_distance).
  virtual unsigned hop_distance(NodeId a, NodeId b) const;

  /// The dateline VC-class rule this routing needs (empty by default).
  virtual BeVcClassMap vc_class_map() const { return {}; }
  /// BE VCs the scheme needs (2 when vc_class_map() is enabled).
  virtual unsigned required_be_vcs() const { return 1; }

  /// Shortest u-turn-free cycle from src back to its own local port
  /// (self-routes reach a node's own NA/programming interface; see
  /// DESIGN.md). ModelError when the topology has no such cycle through
  /// src (e.g. tree graphs).
  std::vector<Direction> self_route(NodeId src) const;

  const Topology& topology() const { return topo_; }

 protected:
  const Topology& topo_;
};

class XyRouting : public RoutingAlgorithm {
 public:
  explicit XyRouting(const MeshTopology& topo)
      : RoutingAlgorithm(topo) {}
  const char* name() const override { return "xy"; }
  std::vector<Direction> route(NodeId src, NodeId dst) const override;
  NextHop next_hop(NodeId node, NodeId dst, unsigned phase) const override;
  unsigned hop_distance(NodeId a, NodeId b) const override;
};

class TorusDorRouting : public RoutingAlgorithm {
 public:
  explicit TorusDorRouting(const TorusTopology& topo)
      : RoutingAlgorithm(topo) {}
  const char* name() const override { return "torus-dor"; }
  std::vector<Direction> route(NodeId src, NodeId dst) const override;
  NextHop next_hop(NodeId node, NodeId dst, unsigned phase) const override;
  unsigned hop_distance(NodeId a, NodeId b) const override;
  BeVcClassMap vc_class_map() const override;
  unsigned required_be_vcs() const override { return 2; }
};

class RingRouting : public RoutingAlgorithm {
 public:
  explicit RingRouting(const RingTopology& topo) : RoutingAlgorithm(topo) {}
  const char* name() const override { return "ring"; }
  std::vector<Direction> route(NodeId src, NodeId dst) const override;
  NextHop next_hop(NodeId node, NodeId dst, unsigned phase) const override;
  unsigned hop_distance(NodeId a, NodeId b) const override;
  BeVcClassMap vc_class_map() const override;
  unsigned required_be_vcs() const override { return 2; }
};

/// Unrestricted minimal table routing: per-destination BFS distance
/// fields, greedy descent with deterministic tie-breaks. On cyclic
/// graphs its channel-dependency graph is cyclic in general, so
/// make_routing() never installs it — it is the reference "plausible
/// but deadlock-prone" routing function the validator demonstrably
/// rejects (tests/test_routing.cpp) and a baseline for route-length
/// comparisons.
class ShortestPathRouting : public RoutingAlgorithm {
 public:
  explicit ShortestPathRouting(const Topology& topo);
  const char* name() const override { return "shortest-path"; }
  std::vector<Direction> route(NodeId src, NodeId dst) const override;
  NextHop next_hop(NodeId node, NodeId dst, unsigned phase) const override;
  unsigned hop_distance(NodeId a, NodeId b) const override;

 private:
  /// dist_[dst_idx][node_idx] = link hops node -> dst.
  std::vector<std::vector<std::uint16_t>> dist_;
};

/// Up*/down* table routing for irregular graphs: edges are oriented
/// toward the BFS-level order rooted at node 0 (lower (level, index) is
/// "up"); a legal route climbs zero or more up edges, then descends zero
/// or more down edges — a down->up turn never occurs, which makes the
/// channel-dependency graph provably acyclic on ANY connected graph.
/// Routes are the shortest legal ones (table-driven, deterministic
/// tie-breaks), possibly longer than the unconstrained minimum.
class UpDownRouting : public RoutingAlgorithm {
 public:
  explicit UpDownRouting(const Topology& topo);
  const char* name() const override { return "up-down"; }
  std::vector<Direction> route(NodeId src, NodeId dst) const override;
  NextHop next_hop(NodeId node, NodeId dst, unsigned phase) const override;
  unsigned hop_distance(NodeId a, NodeId b) const override;

 private:
  bool is_up(std::size_t from, std::size_t to) const {
    return std::make_pair(level_[to], to) < std::make_pair(level_[from], from);
  }

  std::vector<std::uint16_t> level_;  ///< BFS level from the root
  /// dist_[dst_idx][node_idx * 2 + phase] = remaining legal hops to dst,
  /// phase 0 = may still climb, phase 1 = descending only.
  std::vector<std::vector<std::uint16_t>> dist_;
};

/// The canonical routing for a topology (what Network installs).
std::unique_ptr<RoutingAlgorithm> make_routing(const Topology& topo);

/// Materialized routes of a RoutingAlgorithm over a topology.
///
/// The virtual next_hop() interface is the table *builder*: at network
/// construction, every destination's routes are resolved in one
/// chain-memoized sweep over (node, phase) states — each state's next
/// hop is computed exactly once, and the per-pair packed source-route
/// header is assembled incrementally from its successor's
/// (header(v) = move << 30 | header(next) >> 2) — so construction is
/// O(n^2) total, not O(n^2 * diameter), and storage is a flat 6 bytes
/// per pair instead of flattened move sequences. The per-packet hot
/// path stays a table lookup with zero allocation and no virtual
/// dispatch.
///
/// Per (src, dst) pair the table records, under the header-scheme
/// selection rule (DESIGN.md "scale architecture"):
///   * routes of <= 14 hops: the fully packed 32-bit source-route
///     header (bit-identical to build_be_header's) — the paper's scheme
///     stays the fast path and small fabrics are byte-identical;
///   * longer routes: the table-routed scheme (THDR header carrying the
///     destination index; routers call next_hop() per hop).
///
/// Self-routes (src == dst, the out-and-back cycle reaching a node's
/// own local port) are materialized per node as explicit move lists;
/// fabrics without a u-turn-free cycle record the miss and re-raise the
/// routing error on first use, preserving lazy construction semantics.
///
/// Fabrics beyond kDenseNodeLimit nodes are a ModelError: the n^2
/// storage is the only route representation the network reads.
class RouteTable {
 public:
  static constexpr std::size_t kDenseNodeLimit = 4096;
  /// Sentinel shift code (meta high nibble): the route exceeds the
  /// 15-code BE header budget and is table-routed instead.
  static constexpr std::uint8_t kTableRouted = 0xF;
  /// Sentinel shift: a self-route over the 15-code header budget.
  static constexpr std::uint8_t kNoHeader = 0xFF;

  /// `build_threads` bounds the worker pool used to materialize the
  /// per-destination route columns and self-route cycles. Every value
  /// produces a byte-identical table: each destination's column (and
  /// each node's self cycle) is a pure function of (topology, routing)
  /// written to disjoint bytes, so the thread assignment cannot leak
  /// into the result (tests/test_fabric_plan.cpp asserts == across
  /// thread counts on every fabric kind).
  RouteTable(const Topology& topo, const RoutingAlgorithm& routing,
             unsigned build_threads = 1);

  /// Whole-table byte equality (all materialized arrays): the oracle
  /// for the parallel-build determinism contract.
  friend bool operator==(const RouteTable& a, const RouteTable& b);

  /// Always true: every constructible table is materialized. Kept for
  /// perfbench/mango_bench.cpp, which tests it, until a benchmark change
  /// drops it.
  bool dense() const { return true; }
  std::size_t node_count() const { return n_; }

  /// O(1) next-hop lookup for the table-routed header scheme: the out
  /// port from `node_idx` toward `dst_idx` in routing phase `phase`,
  /// and the phase after the hop (node_idx != dst_idx).
  NextHop next_hop(std::size_t node_idx, std::size_t dst_idx,
                   unsigned phase) const {
    const std::uint8_t nib =
        static_cast<std::uint8_t>(hop_[pair(node_idx, dst_idx)] >>
                                  ((phase & 1u) * 4)) & 0xFu;
    return NextHop{static_cast<PortIdx>(nib & 0x3u),
                   static_cast<std::uint8_t>((nib >> 2) & 1u)};
  }

  /// Appends the full move sequence of src -> dst (phase-0 injection);
  /// src == dst yields the self-route cycle (ModelError when the fabric
  /// has none through src). O(route length) chain walk.
  void append_moves(std::size_t src_idx, std::size_t dst_idx,
                    std::vector<Direction>& out) const;
  /// Port the final hop arrives on at the destination (the code that
  /// reads as "back the way it came" there).
  PortIdx delivery_port(std::size_t src_idx, std::size_t dst_idx) const;
  /// Link hops of the materialized src -> dst route (src != dst). O(1)
  /// for header-scheme routes, an O(route length) chain walk beyond.
  unsigned hops(std::size_t src_idx, std::size_t dst_idx) const;
  /// True when (src, dst) selected the table-routed header scheme —
  /// exactly the pairs whose route exceeds 14 hops (src != dst).
  bool table_routed(std::size_t src_idx, std::size_t dst_idx) const {
    return shift_code(src_idx, dst_idx) == kTableRouted;
  }

  /// Unwired-port sentinel in the dense adjacency below.
  static constexpr std::uint32_t kNoLink = 0xFFFFFFFFu;
  /// Dense adjacency of the wired fabric, one entry per (node, out
  /// port): packed (peer_index << 2) | arrival_port, kNoLink when the
  /// port is unwired. Built once with O(4 n) virtual link_peer calls so
  /// the chain walks and the deadlock validator run on flat arrays
  /// instead of re-deriving neighbours through the virtual topology
  /// interface on every hop.
  std::uint32_t adj(std::size_t node_idx, PortIdx port) const {
    return adj_[node_idx * kNumDirections + port];
  }

  /// Precomputed BE header of the src -> dst route with `iface` folded
  /// in: the packed source-route word for routes within the 15-code
  /// budget, the table-routed word beyond. Self-routes are always
  /// source-routed and raise build_be_header's ModelError when the
  /// fabric's shortest self cycle is over budget.
  BeHeader be_header(std::size_t src_idx, std::size_t dst_idx,
                     LocalIface iface) const;

 private:
  std::size_t pair(std::size_t s, std::size_t d) const { return s * n_ + d; }
  std::uint8_t shift_code(std::size_t s, std::size_t d) const {
    return static_cast<std::uint8_t>(meta_[pair(s, d)] >> 4);
  }
  void materialize_self_routes(const Topology& topo,
                               const RoutingAlgorithm& routing,
                               unsigned build_threads);
  void materialize_adjacency(const Topology& topo);
  void materialize_pairs(const Topology& topo,
                         const RoutingAlgorithm& routing,
                         unsigned build_threads);

  std::size_t n_ = 0;
  /// Per-pair next hops, one nibble per phase:
  /// [phase1: next_phase(1) port(2)][phase0: next_phase(1) port(2)].
  std::vector<std::uint8_t> hop_;
  /// Per-pair delivery port (bits 0-1) and header shift / 2 (bits 4-7,
  /// kTableRouted when the route is over the 15-code budget).
  std::vector<std::uint8_t> meta_;
  /// Per-pair packed source-route header with zeroed interface bits
  /// (valid when the shift code is not kTableRouted).
  std::vector<std::uint32_t> header_;
  /// Dense adjacency (see adj()).
  std::vector<std::uint32_t> adj_;
  /// Self-route cycles, flattened per node.
  std::vector<Direction> self_moves_;
  std::vector<std::uint32_t> self_offsets_;
  std::vector<std::uint8_t> self_delivery_;
  std::vector<std::uint32_t> self_header_;
  std::vector<std::uint8_t> self_shift_;  ///< kNoHeader: over budget
  /// Self-route misses (no u-turn-free cycle): re-raise lazily.
  std::vector<bool> self_unavailable_;
  const RoutingAlgorithm* routing_ = nullptr;  ///< for lazy error re-raise
};

/// Result of the channel-dependency-graph acyclicity check. Beyond the
/// verdict it carries a certificate of the dependency graph actually
/// built — the distinct-edge count and an order-sensitive FNV-1a digest
/// over the edge insertion sequence — so callers (and the parallel-build
/// tests) can assert two checks examined the *same* graph, not merely
/// reached the same verdict.
struct DeadlockCheck {
  bool acyclic = true;
  /// Human-readable description of the first dependency cycle found
  /// (empty when acyclic).
  std::string cycle;
  /// Distinct channel-dependency edges recorded.
  std::uint64_t edges = 0;
  /// FNV-1a over the (from, to) edge insertion sequence.
  std::uint64_t digest = 0;
};

/// Builds the channel-dependency graph of `routing` over `topo` —
/// channels are (link, BE VC class) pairs, with the VC class evolved by
/// the routing's dateline rule — and checks it for cycles. Exhaustive
/// over all src/dst pairs up to 512 nodes, deterministically stratified
/// beyond. `be_vcs` guards that the rule never demands a class the
/// router configuration lacks. Networks validate with the table
/// overload below; this one walks the virtual interface and serves as
/// its independent reference (tests, perfbench).
DeadlockCheck check_deadlock_freedom(const Topology& topo,
                                     const RoutingAlgorithm& routing,
                                     unsigned be_vcs);

/// Same check, run against the materialized route tables instead of the
/// virtual interface: what Network validates is exactly what the hot
/// path will execute. Exhaustive over every (src, dst) pair up to 1024
/// nodes, deterministically stratified beyond (mirroring the virtual
/// check's sampling so 4096-node construction stays bounded).
///
/// `threads` bounds the worker pool enumerating per-destination edge
/// sequences; the sequences merge serially in destination order, which
/// replicates the single-threaded insertion order exactly, so the
/// verdict, cycle string, edge count and digest are identical for every
/// thread count.
DeadlockCheck check_deadlock_freedom(const Topology& topo,
                                     const RouteTable& table,
                                     const BeVcClassMap& vc_map,
                                     unsigned be_vcs,
                                     unsigned threads = 1);

}  // namespace mango::noc
