// Routing algorithms over pluggable topologies.
//
// A RoutingAlgorithm is one routing function, next_hop(node, dst,
// phase): the out port a packet at `node` takes toward `dst`. The
// RouteTable below materializes it once per fabric, and every route the
// simulator uses — the source-routed BE header, the path the GS
// connection manager reserves hop by hop, hop counts, the deadlock
// check — is a walk of that table. Implementations:
//
//   * DimensionOrderRouting — x before y on every grid fabric (mesh,
//     cmesh, torus, ring): XY where a dimension has no wrap links (the
//     paper's scheme; acyclic by monotonicity), the minimal way round
//     where it wraps, with the wrap links as datelines (packets start a
//     dimension on BE VC 0 and are promoted to VC 1 crossing one), so a
//     wrap fabric requires two BE VCs;
//   * UpDownRouting — shortest-path table routing for irregular graphs,
//     restricted to up*/down* turns over a BFS spanning order (up edges
//     point toward the root level). Pure minimal routing on an irregular
//     graph is NOT deadlock-free in general; tests/test_routing.cpp
//     shows the validator rejecting it.
//
// Deadlock freedom is not taken on faith: check_deadlock_freedom()
// builds the channel-dependency graph of (topology, route table,
// VC-class rule) and reports the first cycle, and FabricPlan::build
// rejects cyclic routing functions up front.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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
  /// BE VCs the rule needs: the promoted class lives on the second one.
  unsigned required_be_vcs() const { return enabled ? 2 : 1; }
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

  /// The routing function: the out port from `node` toward `dst` in
  /// routing phase `phase` (node != dst), and the phase after the hop.
  /// Routes are the greedy walks of next_hop from phase 0, so every
  /// implementation guarantees that the walk reaches dst over wired
  /// links and never leaves a node by its arrival port (a u-turn would
  /// read as the local-delivery code). The RouteTable build checks the
  /// first and the deadlock check the second.
  virtual NextHop next_hop(NodeId node, NodeId dst, unsigned phase) const = 0;

  /// The dateline VC-class rule this routing needs (empty by default).
  virtual BeVcClassMap vc_class_map() const { return {}; }

  const Topology& topology() const { return topo_; }

 protected:
  const Topology& topo_;
};

/// Dimension-ordered routing on a grid fabric: x before y. Whether a
/// dimension wraps is read from the port table — node 0's West (South)
/// port is wired exactly when Topology::wire_grid closed x (y) into a
/// cycle. A dimension without wrap links routes XY; a wrap dimension
/// takes the minimal way round (ties forward), and each of its wrap
/// links is a dateline in vc_class_map(). Irregular graphs are a
/// ModelError: they route up*/down*.
class DimensionOrderRouting : public RoutingAlgorithm {
 public:
  explicit DimensionOrderRouting(const Topology& topo);
  const char* name() const override { return "dimension-order"; }
  NextHop next_hop(NodeId node, NodeId dst, unsigned phase) const override;
  BeVcClassMap vc_class_map() const override;

 private:
  bool wrap_x_ = false;
  bool wrap_y_ = false;
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
  NextHop next_hop(NodeId node, NodeId dst, unsigned phase) const override;

 private:
  bool is_up(std::size_t from, std::size_t to) const {
    return std::make_pair(level_[to], to) < std::make_pair(level_[from], from);
  }

  std::vector<std::uint16_t> level_;  ///< BFS level from the root
  /// dist_[dst_idx][node_idx * 2 + phase] = remaining legal hops to dst,
  /// phase 0 = may still climb, phase 1 = descending only.
  std::vector<std::vector<std::uint16_t>> dist_;
};

/// The canonical routing for a topology (what Network installs):
/// dimension-ordered on grid fabrics, up*/down* on irregular graphs.
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
/// There is no route from a node to itself: a code pointing back the
/// way a packet came means local delivery (paper Section 5), so a node
/// reaches its own local port through that port, never through the
/// network. Every accessor below raises a ModelError for src == dst.
///
/// The table stores routes, not wires: its chain walks and the deadlock
/// check step through the topology's own port table (Topology::adj),
/// which the table borrows — the Topology outlives it.
///
/// Fabrics beyond kDenseNodeLimit nodes are a ModelError: the n^2
/// storage is the only route representation the network reads.
class RouteTable {
 public:
  static constexpr std::size_t kDenseNodeLimit = 4096;
  /// Sentinel shift code (meta high nibble): the route exceeds the
  /// 15-code BE header budget and is table-routed instead.
  static constexpr std::uint8_t kTableRouted = 0xF;

  /// `build_threads` bounds the worker pool used to materialize the
  /// per-destination route columns. Every value produces a
  /// byte-identical table: each destination's column is a pure function
  /// of (topology, routing) written to disjoint bytes, so the thread
  /// assignment cannot leak into the result (tests/test_fabric_plan.cpp
  /// asserts == across thread counts on every fabric kind).
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

  /// Appends the full move sequence of src -> dst (phase-0 injection).
  /// O(route length) chain walk.
  void append_moves(std::size_t src_idx, std::size_t dst_idx,
                    std::vector<Direction>& out) const;
  /// Port the final hop arrives on at the destination (the code that
  /// reads as "back the way it came" there).
  PortIdx delivery_port(std::size_t src_idx, std::size_t dst_idx) const;
  /// Link hops of the materialized src -> dst route. O(1) for
  /// header-scheme routes, an O(route length) chain walk beyond.
  unsigned hops(std::size_t src_idx, std::size_t dst_idx) const;
  /// True when (src, dst) selected the table-routed header scheme —
  /// exactly the pairs whose route exceeds 14 hops (src != dst).
  bool table_routed(std::size_t src_idx, std::size_t dst_idx) const {
    return shift_code(src_idx, dst_idx) == kTableRouted;
  }

  /// Precomputed BE header of the src -> dst route with `iface` folded
  /// in: the packed source-route word for routes within the 15-code
  /// budget, the table-routed word beyond.
  BeHeader be_header(std::size_t src_idx, std::size_t dst_idx,
                     LocalIface iface) const;

 private:
  std::size_t pair(std::size_t s, std::size_t d) const { return s * n_ + d; }
  /// Range-checks a pair and rejects src == dst (ModelError).
  void check_pair(std::size_t src_idx, std::size_t dst_idx) const;
  std::uint8_t shift_code(std::size_t s, std::size_t d) const {
    return static_cast<std::uint8_t>(meta_[pair(s, d)] >> 4);
  }
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
  /// The fabric's port table: chain walks step through Topology::adj.
  const Topology* topo_ = nullptr;
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

/// Builds the channel-dependency graph of a routed fabric — channels are
/// (link, BE VC class) pairs, with the VC class evolved by the routing's
/// dateline rule — and checks it for cycles. It walks the materialized
/// route tables, so what FabricPlan validates is exactly what the hot
/// path will execute. Exhaustive over every (src, dst) pair up to 1024
/// nodes, deterministically stratified beyond (every k-th node as source
/// and destination), so 4096-node construction stays bounded. `be_vcs`
/// guards that the rule never demands a class the router configuration
/// lacks.
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

/// The same check for a routing function: materializes its RouteTable
/// and runs the check above with the routing's own VC-class rule.
DeadlockCheck check_deadlock_freedom(const Topology& topo,
                                     const RoutingAlgorithm& routing,
                                     unsigned be_vcs);

}  // namespace mango::noc
