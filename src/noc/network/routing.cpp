#include "noc/network/routing.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "noc/common/flit.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

namespace {

/// Shared-cursor parallel loop over `items` independent work items.
/// Each worker gets one private scratch object from `make_state`; the
/// serial path (threads <= 1 or a single item) runs the identical
/// per-item code inline, so parallel and serial execution differ only
/// in which thread touches which item — never in what is computed. The
/// first exception thrown by any item is rethrown on the caller.
template <typename MakeState, typename Fn>
void parallel_items(std::size_t items, unsigned threads, MakeState make_state,
                    Fn fn) {
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, threads), items == 0 ? 1 : items));
  if (workers <= 1) {
    auto state = make_state();
    for (std::size_t i = 0; i < items; ++i) fn(i, state);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  const auto body = [&] {
    auto state = make_state();
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items) return;
      try {
        fn(i, state);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(body);
  for (auto& t : pool) t.join();
  if (err) std::rethrow_exception(err);
}

}  // namespace

// --- base --------------------------------------------------------------------

unsigned RoutingAlgorithm::hop_distance(NodeId a, NodeId b) const {
  if (a == b) return 0;
  return static_cast<unsigned>(route(a, b).size());
}

std::vector<Direction> RoutingAlgorithm::self_route(NodeId src) const {
  // BFS over (node, arrival port) states for the shortest cycle back to
  // src that never leaves a node by its arrival port (the u-turn code
  // means local delivery). Port order gives deterministic tie-breaks.
  MANGO_ASSERT(topo_.contains(src), "self-route source not in the topology");
  struct State {
    std::size_t node_idx;
    PortIdx in_port;
  };
  const std::size_t n = topo_.node_count();
  // parent[state] = (previous state index, move), or unset.
  std::vector<std::optional<std::pair<std::size_t, Direction>>> parent(
      n * kNumDirections);
  const auto state_id = [](std::size_t node_idx, PortIdx in_port) {
    return node_idx * kNumDirections + in_port;
  };
  std::deque<State> queue;
  const std::size_t src_idx = topo_.index(src);

  const auto expand = [&](NodeId at, PortIdx in_port,
                          std::optional<std::size_t> from_state)
      -> std::optional<std::size_t> {
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      if (is_network_port(in_port) && p == in_port) continue;  // u-turn
      const auto peer = topo_.link_peer(at, p);
      if (!peer.has_value()) continue;
      const std::size_t peer_idx = topo_.index(peer->node);
      const std::size_t sid = state_id(peer_idx, peer->port);
      if (parent[sid].has_value()) continue;  // visited
      parent[sid] = {from_state.value_or(sid), direction_of(p)};
      if (peer_idx == src_idx) return sid;  // cycle closed
      queue.push_back(State{peer_idx, peer->port});
    }
    return std::nullopt;
  };

  // Seed: first hops out of src (in_port = local, no u-turn constraint).
  std::optional<std::size_t> goal = expand(src, kLocalPort, std::nullopt);
  while (!goal.has_value() && !queue.empty()) {
    const State st = queue.front();
    queue.pop_front();
    goal = expand(topo_.node_at(st.node_idx), st.in_port,
                  state_id(st.node_idx, st.in_port));
  }
  if (!goal.has_value()) {
    model_fail("topology " + topo_.label() +
               " has no u-turn-free cycle through " + to_string(src) +
               " — self-routes (programming a host's own router by "
               "packet) are unavailable on this fabric");
  }
  std::vector<Direction> moves;
  std::size_t sid = *goal;
  for (;;) {
    const auto& [prev, move] = *parent[sid];
    moves.push_back(move);
    if (prev == sid) break;  // seed state points at itself
    sid = prev;
  }
  std::reverse(moves.begin(), moves.end());
  return moves;
}

// --- XY on the mesh ----------------------------------------------------------

std::vector<Direction> XyRouting::route(NodeId src, NodeId dst) const {
  MANGO_ASSERT(topo_.contains(src) && topo_.contains(dst),
               "route endpoints out of bounds");
  return xy_route(src, dst);
}

NextHop XyRouting::next_hop(NodeId node, NodeId dst, unsigned) const {
  // One step of xy_route: finish x before y, matching route() exactly.
  if (node.x != dst.x) {
    return NextHop{
        port_of(node.x < dst.x ? Direction::kEast : Direction::kWest), 0};
  }
  MANGO_ASSERT(node.y != dst.y, "next_hop at the destination");
  return NextHop{
      port_of(node.y < dst.y ? Direction::kNorth : Direction::kSouth), 0};
}

unsigned XyRouting::hop_distance(NodeId a, NodeId b) const {
  return mango::noc::hop_distance(a, b);  // Manhattan
}

// --- dimension-ordered torus -------------------------------------------------

namespace {

/// Minimal moves along one wrap dimension: distance `fwd` going the
/// positive direction, `extent - fwd` going back; ties go forward.
void append_dim_moves(std::vector<Direction>& moves, unsigned from,
                      unsigned to, unsigned extent, Direction fwd_dir,
                      Direction back_dir) {
  const unsigned fwd = (to + extent - from) % extent;
  const unsigned back = extent - fwd;
  if (fwd == 0) return;
  if (fwd <= back) {
    moves.insert(moves.end(), fwd, fwd_dir);
  } else {
    moves.insert(moves.end(), back, back_dir);
  }
}

/// One step of append_dim_moves. Memoryless: moving toward `to` only
/// shrinks the chosen side of the fwd-vs-back comparison (ties go
/// forward both before and after the step), so the per-hop choice
/// reproduces the whole-route choice.
Direction dim_step(unsigned from, unsigned to, unsigned extent,
                   Direction fwd_dir, Direction back_dir) {
  const unsigned fwd = (to + extent - from) % extent;
  const unsigned back = extent - fwd;
  return fwd <= back ? fwd_dir : back_dir;
}

}  // namespace

std::vector<Direction> TorusDorRouting::route(NodeId src, NodeId dst) const {
  MANGO_ASSERT(topo_.contains(src) && topo_.contains(dst),
               "route endpoints out of bounds");
  const auto& torus = static_cast<const TorusTopology&>(topo_);
  std::vector<Direction> moves;
  append_dim_moves(moves, src.x, dst.x, torus.width(), Direction::kEast,
                   Direction::kWest);
  append_dim_moves(moves, src.y, dst.y, torus.height(), Direction::kNorth,
                   Direction::kSouth);
  return moves;
}

NextHop TorusDorRouting::next_hop(NodeId node, NodeId dst, unsigned) const {
  const auto& torus = static_cast<const TorusTopology&>(topo_);
  if (node.x != dst.x) {
    return NextHop{port_of(dim_step(node.x, dst.x, torus.width(),
                                    Direction::kEast, Direction::kWest)),
                   0};
  }
  MANGO_ASSERT(node.y != dst.y, "next_hop at the destination");
  return NextHop{port_of(dim_step(node.y, dst.y, torus.height(),
                                  Direction::kNorth, Direction::kSouth)),
                 0};
}

unsigned TorusDorRouting::hop_distance(NodeId a, NodeId b) const {
  const auto& torus = static_cast<const TorusTopology&>(topo_);
  const unsigned dxf = (b.x + torus.width() - a.x) % torus.width();
  const unsigned dyf = (b.y + torus.height() - a.y) % torus.height();
  return std::min(dxf, torus.width() - dxf) +
         std::min(dyf, torus.height() - dyf);
}

BeVcClassMap TorusDorRouting::vc_class_map() const {
  const auto& torus = static_cast<const TorusTopology&>(topo_);
  BeVcClassMap map;
  map.enabled = true;
  map.dateline.resize(topo_.node_count());
  for (std::size_t i = 0; i < topo_.node_count(); ++i) {
    const NodeId n = topo_.node_at(i);
    // The wrap links are the datelines: forwarding East off the high-x
    // edge (or West off x=0, North off the high-y edge, South off y=0)
    // crosses one.
    map.dateline[i][port_of(Direction::kEast)] = n.x + 1 == torus.width();
    map.dateline[i][port_of(Direction::kWest)] = n.x == 0;
    map.dateline[i][port_of(Direction::kNorth)] = n.y + 1 == torus.height();
    map.dateline[i][port_of(Direction::kSouth)] = n.y == 0;
  }
  return map;
}

// --- ring --------------------------------------------------------------------

std::vector<Direction> RingRouting::route(NodeId src, NodeId dst) const {
  MANGO_ASSERT(topo_.contains(src) && topo_.contains(dst),
               "route endpoints out of bounds");
  const unsigned n = static_cast<unsigned>(topo_.node_count());
  std::vector<Direction> moves;
  append_dim_moves(moves, src.x, dst.x, n, Direction::kEast,
                   Direction::kWest);
  return moves;
}

NextHop RingRouting::next_hop(NodeId node, NodeId dst, unsigned) const {
  const unsigned n = static_cast<unsigned>(topo_.node_count());
  MANGO_ASSERT(node.x != dst.x, "next_hop at the destination");
  return NextHop{port_of(dim_step(node.x, dst.x, n, Direction::kEast,
                                  Direction::kWest)),
                 0};
}

unsigned RingRouting::hop_distance(NodeId a, NodeId b) const {
  const unsigned n = static_cast<unsigned>(topo_.node_count());
  const unsigned fwd = (b.x + n - a.x) % n;
  return std::min(fwd, n - fwd);
}

BeVcClassMap RingRouting::vc_class_map() const {
  const unsigned n = static_cast<unsigned>(topo_.node_count());
  BeVcClassMap map;
  map.enabled = true;
  map.dateline.resize(n);
  map.dateline[n - 1][port_of(Direction::kEast)] = true;  // (n-1) -> 0
  map.dateline[0][port_of(Direction::kWest)] = true;      // 0 -> (n-1)
  return map;
}

// --- shortest-path tables ----------------------------------------------------

ShortestPathRouting::ShortestPathRouting(const Topology& topo)
    : RoutingAlgorithm(topo) {
  const std::size_t n = topo.node_count();
  constexpr std::uint16_t kUnreached = 0xFFFF;
  dist_.assign(n, std::vector<std::uint16_t>(n, kUnreached));
  for (std::size_t dst = 0; dst < n; ++dst) {
    auto& field = dist_[dst];
    field[dst] = 0;
    std::deque<std::size_t> queue{dst};
    while (!queue.empty()) {
      const std::size_t cur = queue.front();
      queue.pop_front();
      const NodeId cur_node = topo.node_at(cur);
      for (PortIdx p = 0; p < kNumDirections; ++p) {
        const auto peer = topo.link_peer(cur_node, p);
        if (!peer.has_value()) continue;
        const std::size_t pi = topo.index(peer->node);
        if (field[pi] != kUnreached) continue;
        field[pi] = static_cast<std::uint16_t>(field[cur] + 1);
        queue.push_back(pi);
      }
    }
    MANGO_ASSERT(
        std::find(field.begin(), field.end(), kUnreached) == field.end(),
        "topology " + topo.label() + " is disconnected: node " +
            to_string(topo.node_at(dst)) + " is unreachable");
  }
}

std::vector<Direction> ShortestPathRouting::route(NodeId src,
                                                  NodeId dst) const {
  MANGO_ASSERT(topo_.contains(src) && topo_.contains(dst),
               "route endpoints out of bounds");
  const std::size_t dst_idx = topo_.index(dst);
  const auto& field = dist_[dst_idx];
  std::vector<Direction> moves;
  NodeId cur = src;
  std::size_t cur_idx = topo_.index(src);
  moves.reserve(field[cur_idx]);
  while (cur_idx != dst_idx) {
    // Greedy descent: distance strictly decreases each hop, so the walk
    // terminates and never re-exits through its arrival port.
    bool advanced = false;
    for (PortIdx p = 0; p < kNumDirections && !advanced; ++p) {
      const auto peer = topo_.link_peer(cur, p);
      if (!peer.has_value()) continue;
      const std::size_t pi = topo_.index(peer->node);
      if (field[pi] + 1 != field[cur_idx]) continue;
      moves.push_back(direction_of(p));
      cur = peer->node;
      cur_idx = pi;
      advanced = true;
    }
    MANGO_ASSERT(advanced, "distance field has no descent — corrupt table");
  }
  return moves;
}

NextHop ShortestPathRouting::next_hop(NodeId node, NodeId dst,
                                      unsigned) const {
  // One iteration of route()'s greedy descent: the first port (in port
  // order) whose peer is strictly closer to dst.
  const auto& field = dist_[topo_.index(dst)];
  const std::size_t cur_idx = topo_.index(node);
  MANGO_ASSERT(cur_idx != topo_.index(dst), "next_hop at the destination");
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    const auto peer = topo_.link_peer(node, p);
    if (!peer.has_value()) continue;
    if (field[topo_.index(peer->node)] + 1 != field[cur_idx]) continue;
    return NextHop{p, 0};
  }
  MANGO_ASSERT(false, "distance field has no descent — corrupt table");
  return NextHop{};
}

unsigned ShortestPathRouting::hop_distance(NodeId a, NodeId b) const {
  return dist_[topo_.index(b)][topo_.index(a)];
}

// --- up*/down* ---------------------------------------------------------------

UpDownRouting::UpDownRouting(const Topology& topo) : RoutingAlgorithm(topo) {
  const std::size_t n = topo.node_count();
  constexpr std::uint16_t kUnreached = 0xFFFF;

  // BFS levels from node 0 define the up orientation.
  level_.assign(n, kUnreached);
  level_[0] = 0;
  std::deque<std::size_t> queue{0};
  while (!queue.empty()) {
    const std::size_t cur = queue.front();
    queue.pop_front();
    const NodeId cur_node = topo.node_at(cur);
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      const auto peer = topo.link_peer(cur_node, p);
      if (!peer.has_value()) continue;
      const std::size_t pi = topo.index(peer->node);
      if (level_[pi] != kUnreached) continue;
      level_[pi] = static_cast<std::uint16_t>(level_[cur] + 1);
      queue.push_back(pi);
    }
  }
  MANGO_ASSERT(
      std::find(level_.begin(), level_.end(), kUnreached) == level_.end(),
      "topology " + topo.label() + " is disconnected");

  // Per destination: backward BFS over the legal-step state graph.
  // States: node * 2 + phase (0 = may still climb, 1 = descending).
  // Forward steps: (v,0) -up-> (u,0); (v,0) -down-> (u,1);
  //                (v,1) -down-> (u,1).
  dist_.assign(n, std::vector<std::uint16_t>(2 * n, kUnreached));
  for (std::size_t dst = 0; dst < n; ++dst) {
    auto& d = dist_[dst];
    d[2 * dst] = 0;
    d[2 * dst + 1] = 0;
    std::deque<std::size_t> states{2 * dst, 2 * dst + 1};
    while (!states.empty()) {
      const std::size_t s = states.front();
      states.pop_front();
      const std::size_t u = s / 2;
      const unsigned phase = s % 2;
      const NodeId u_node = topo.node_at(u);
      // Predecessors v with a legal step v -> u landing in state s.
      for (PortIdx p = 0; p < kNumDirections; ++p) {
        const auto peer = topo.link_peer(u_node, p);
        if (!peer.has_value()) continue;
        const std::size_t v = topo.index(peer->node);
        const bool up_move = is_up(v, u);  // the v -> u direction
        std::size_t pred;
        if (phase == 0) {
          if (!up_move) continue;  // only up moves land in phase 0
          pred = 2 * v;            // and only from phase 0
        } else {
          if (up_move) continue;  // down moves land in phase 1 ...
          if (d[2 * v] == kUnreached) {
            d[2 * v] = static_cast<std::uint16_t>(d[s] + 1);
            states.push_back(2 * v);  // ... from phase 0 (the turn) ...
          }
          pred = 2 * v + 1;  // ... or from phase 1
        }
        if (d[pred] == kUnreached) {
          d[pred] = static_cast<std::uint16_t>(d[s] + 1);
          states.push_back(pred);
        }
      }
    }
    MANGO_ASSERT(
        [&] {
          for (std::size_t v = 0; v < n; ++v) {
            if (d[2 * v] == kUnreached) return false;
          }
          return true;
        }(),
        "up*/down* cannot reach " + to_string(topo.node_at(dst)) +
            " from every node — topology " + topo.label() +
            " is disconnected");
  }
}

std::vector<Direction> UpDownRouting::route(NodeId src, NodeId dst) const {
  MANGO_ASSERT(topo_.contains(src) && topo_.contains(dst),
               "route endpoints out of bounds");
  const std::size_t dst_idx = topo_.index(dst);
  const auto& d = dist_[dst_idx];
  std::vector<Direction> moves;
  NodeId cur = src;
  std::size_t cur_idx = topo_.index(src);
  unsigned phase = 0;
  moves.reserve(d[2 * cur_idx]);
  while (cur_idx != dst_idx) {
    bool advanced = false;
    for (PortIdx p = 0; p < kNumDirections && !advanced; ++p) {
      const auto peer = topo_.link_peer(cur, p);
      if (!peer.has_value()) continue;
      const std::size_t pi = topo_.index(peer->node);
      const bool up_move = is_up(cur_idx, pi);
      if (phase == 1 && up_move) continue;  // no down->up turns
      const unsigned next_phase = up_move ? phase : 1;
      if (d[2 * pi + next_phase] + 1 != d[2 * cur_idx + phase]) continue;
      moves.push_back(direction_of(p));
      cur = peer->node;
      cur_idx = pi;
      phase = next_phase;
      advanced = true;
    }
    MANGO_ASSERT(advanced, "up*/down* table has no descent — corrupt table");
  }
  return moves;
}

NextHop UpDownRouting::next_hop(NodeId node, NodeId dst,
                                unsigned phase) const {
  // One iteration of route()'s greedy descent over the legal-step state
  // graph — including the phase evolution (phase 1 after the first down
  // move), which is exactly the bit the table-routed header carries.
  const auto& d = dist_[topo_.index(dst)];
  const std::size_t cur_idx = topo_.index(node);
  MANGO_ASSERT(cur_idx != topo_.index(dst), "next_hop at the destination");
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    const auto peer = topo_.link_peer(node, p);
    if (!peer.has_value()) continue;
    const std::size_t pi = topo_.index(peer->node);
    const bool up_move = is_up(cur_idx, pi);
    if (phase == 1 && up_move) continue;  // no down->up turns
    const unsigned next_phase = up_move ? phase : 1;
    if (d[2 * pi + next_phase] + 1 != d[2 * cur_idx + phase]) continue;
    return NextHop{p, static_cast<std::uint8_t>(next_phase)};
  }
  MANGO_ASSERT(false, "up*/down* table has no descent — corrupt table");
  return NextHop{};
}

unsigned UpDownRouting::hop_distance(NodeId a, NodeId b) const {
  return dist_[topo_.index(b)][2 * topo_.index(a)];
}

// --- factory -----------------------------------------------------------------

std::unique_ptr<RoutingAlgorithm> make_routing(const Topology& topo) {
  switch (topo.kind()) {
    case TopologyKind::kMesh:
    case TopologyKind::kCMesh:
      // A concentrated mesh IS-A mesh at the wire level; XY applies
      // unchanged (concentration only multiplies traffic sources).
      return std::make_unique<XyRouting>(
          static_cast<const MeshTopology&>(topo));
    case TopologyKind::kTorus:
      return std::make_unique<TorusDorRouting>(
          static_cast<const TorusTopology&>(topo));
    case TopologyKind::kRing:
      return std::make_unique<RingRouting>(
          static_cast<const RingTopology&>(topo));
    case TopologyKind::kGraph:
      // Unconstrained shortest paths deadlock on cyclic graphs (the
      // validator rejects them); up*/down* turns are the canonical
      // deadlock-free discipline for irregular fabrics.
      return std::make_unique<UpDownRouting>(topo);
  }
  model_fail("unknown topology kind");
}

// --- materialized route tables -----------------------------------------------

RouteTable::RouteTable(const Topology& topo, const RoutingAlgorithm& routing,
                       unsigned build_threads)
    : n_(topo.node_count()), routing_(&routing) {
  if (n_ > kDenseNodeLimit) {
    model_fail(topo.label() + " has " + std::to_string(n_) +
               " nodes; route tables support at most " +
               std::to_string(kDenseNodeLimit));
  }
  materialize_adjacency(topo);
  materialize_self_routes(topo, routing, build_threads);
  materialize_pairs(topo, routing, build_threads);
}

bool operator==(const RouteTable& a, const RouteTable& b) {
  return a.n_ == b.n_ && a.hop_ == b.hop_ &&
         a.meta_ == b.meta_ && a.header_ == b.header_ && a.adj_ == b.adj_ &&
         a.self_moves_ == b.self_moves_ &&
         a.self_offsets_ == b.self_offsets_ &&
         a.self_delivery_ == b.self_delivery_ &&
         a.self_header_ == b.self_header_ && a.self_shift_ == b.self_shift_ &&
         a.self_unavailable_ == b.self_unavailable_;
}

void RouteTable::materialize_adjacency(const Topology& topo) {
  adj_.assign(n_ * kNumDirections, kNoLink);
  for (std::size_t i = 0; i < n_; ++i) {
    const NodeId node = topo.node_at(i);
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      const auto peer = topo.link_peer(node, p);
      if (!peer.has_value()) continue;
      adj_[i * kNumDirections + p] = static_cast<std::uint32_t>(
          (topo.index(peer->node) << 2) | (peer->port & 0x3u));
    }
  }
}

void RouteTable::materialize_self_routes(const Topology& topo,
                                         const RoutingAlgorithm& routing,
                                         unsigned build_threads) {
  self_offsets_.assign(n_ + 1, 0);
  self_delivery_.assign(n_, 0);
  self_header_.assign(n_, 0);
  self_shift_.assign(n_, kNoHeader);
  self_unavailable_.assign(n_, false);
  // Phase 1 (parallel): each node's self cycle is an independent BFS —
  // a pure function of (topology, node) written to its own slot.
  // Self-routes exist only on fabrics with a u-turn-free cycle; record
  // the miss and re-raise the routing error on first use (construction
  // stays lazy, exactly like the virtual path).
  std::vector<std::vector<Direction>> cycles(n_);
  std::vector<std::uint8_t> miss(n_, 0);  // byte-wide: vector<bool> packs bits
  parallel_items(
      n_, build_threads, [] { return 0; },
      [&](std::size_t s, int&) {
        try {
          cycles[s] = routing.self_route(topo.node_at(s));
        } catch (const ModelError&) {
          miss[s] = 1;
        }
      });
  // Phase 2 (serial): flatten in node order and fold headers, so the
  // packed layout is independent of the phase-1 thread assignment.
  for (std::size_t s = 0; s < n_; ++s) {
    self_offsets_[s] = static_cast<std::uint32_t>(self_moves_.size());
    if (miss[s]) {
      self_unavailable_[s] = true;
      continue;
    }
    const NodeId src = topo.node_at(s);
    const std::vector<Direction>& mv = cycles[s];
    MANGO_ASSERT(!mv.empty(), "routing produced an empty self-route");
    self_moves_.insert(self_moves_.end(), mv.begin(), mv.end());
    const auto end = topo.walk(src, mv);
    MANGO_ASSERT(end.has_value(), "self-route walks an unwired port");
    self_delivery_[s] = end->arrival_port;
    // Fold the header now when the cycle fits the 15-code budget; the
    // interface bits stay zero and are ORed in per lookup. Self-routes
    // are always source-routed (a table header addressed to the local
    // router would be delivered without ever leaving it), so an
    // over-budget cycle keeps the paper's error behaviour.
    const std::size_t codes = mv.size() + 1;
    if (codes <= kMaxHeaderCodes) {
      std::uint32_t header = 0;
      for (const Direction d : mv) {
        header = (header << 2) | (static_cast<std::uint32_t>(d) & 0x3u);
      }
      header = (header << 2) |
               (static_cast<std::uint32_t>(end->arrival_port) & 0x3u);
      header <<= 2;  // interface bits, zeroed
      const unsigned used_bits = 2 * static_cast<unsigned>(codes + 1);
      header <<= (32 - used_bits);
      self_header_[s] = header;
      self_shift_[s] = static_cast<std::uint8_t>(32 - used_bits);
    }
  }
  self_offsets_[n_] = static_cast<std::uint32_t>(self_moves_.size());
}

namespace {

/// Per-worker scratch for the chain-memoized destination sweep.
struct PairScratch {
  std::vector<std::uint8_t> resolved;
  std::vector<std::uint8_t> step_port;
  std::vector<std::uint8_t> step_phase;
  std::vector<std::uint32_t> succ;
  std::vector<std::uint8_t> arrive;  // arrival port at the successor
  std::vector<std::uint32_t> hdr;
  std::vector<std::uint8_t> shiftc;  // shift/2; kTableRouted = over
  std::vector<std::uint8_t> deliv;
  std::vector<std::uint32_t> stack;

  explicit PairScratch(std::size_t states)
      : resolved(states),
        step_port(states),
        step_phase(states),
        succ(states),
        arrive(states),
        hdr(states),
        shiftc(states),
        deliv(states) {}
};

}  // namespace

void RouteTable::materialize_pairs(const Topology& topo,
                                   const RoutingAlgorithm& routing,
                                   unsigned build_threads) {
  const std::size_t pairs = n_ * n_;
  hop_.assign(pairs, 0);
  meta_.assign(pairs, static_cast<std::uint8_t>(kTableRouted << 4));
  header_.assign(pairs, 0);

  // Chain-memoized sweep: per destination, every (node, phase) state is
  // resolved exactly once — walk unresolved states forward until the
  // chain reaches the destination or a state resolved by an earlier
  // walk, then unwind, assembling each state's packed header from its
  // successor's (header(v) = move << 30 | header(next) >> 2, shift
  // shrinking 2 bits per hop). Total work is O(n^2) next_hop steps,
  // independent of fabric diameter.
  //
  // Destinations are independent: each one's sweep reads only the
  // immutable topology/routing/adjacency and commits only its own
  // (v, d) column — disjoint bytes whose values are pure functions of
  // the pair — so the sweep fans out across build_threads workers (one
  // private scratch each) and any thread count yields the identical
  // table.
  const std::size_t states = 2 * n_;
  const auto resolve_destination = [&](std::size_t d, PairScratch& sc) {
    std::fill(sc.resolved.begin(), sc.resolved.end(), 0);
    const NodeId dst = topo.node_at(d);
    for (std::size_t v = 0; v < n_; ++v) {
      if (v == d) continue;
      std::uint32_t s = static_cast<std::uint32_t>(2 * v);
      sc.stack.clear();
      while (!sc.resolved[s] && s / 2 != d) {
        const std::size_t node_idx = s / 2;
        const unsigned phase = s & 1u;
        const NodeId node = topo.node_at(node_idx);
        const NextHop nh = routing.next_hop(node, dst, phase);
        const std::uint32_t a = adj(node_idx, nh.port);
        MANGO_ASSERT(a != kNoLink,
                     "route " + to_string(node) + "->" + to_string(dst) +
                         " uses the unwired port " + port_name(nh.port) +
                         " at " + to_string(node));
        sc.step_port[s] = nh.port;
        sc.step_phase[s] = nh.phase;
        sc.arrive[s] = static_cast<std::uint8_t>(a & 0x3u);
        sc.succ[s] = static_cast<std::uint32_t>(2 * (a >> 2) + nh.phase);
        sc.stack.push_back(s);
        MANGO_ASSERT(sc.stack.size() <= states,
                     "next_hop walk from " + to_string(topo.node_at(v)) +
                         " never reaches " + to_string(dst) +
                         " — route() is not the greedy walk of next_hop()");
        s = sc.succ[s];
      }
      for (std::size_t k = sc.stack.size(); k-- > 0;) {
        const std::uint32_t cur = sc.stack[k];
        const std::uint32_t nxt = sc.succ[cur];
        const std::uint32_t move2 = sc.step_port[cur] & 0x3u;
        if (nxt / 2 == d) {
          // Final hop: the delivery code is the arrival port at dst;
          // the packed header is [move, delivery, iface(0)] left-
          // aligned, bit-identical to build_be_header's layout.
          sc.deliv[cur] = sc.arrive[cur];
          sc.hdr[cur] =
              (move2 << 30) |
              ((static_cast<std::uint32_t>(sc.arrive[cur]) & 0x3u) << 28);
          sc.shiftc[cur] = 13;  // shift 26 (1 move + delivery + iface)
        } else {
          sc.deliv[cur] = sc.deliv[nxt];
          if (sc.shiftc[nxt] == kTableRouted || sc.shiftc[nxt] == 0) {
            sc.shiftc[cur] = kTableRouted;  // 15th hop: over the code budget
          } else {
            sc.shiftc[cur] = static_cast<std::uint8_t>(sc.shiftc[nxt] - 1);
            sc.hdr[cur] = (move2 << 30) | (sc.hdr[nxt] >> 2);
          }
        }
        sc.resolved[cur] = 1;
      }
    }
    // Commit this destination's packed per-pair rows. Phase-1 states a
    // real packet can occupy were resolved by some walk; the rest keep
    // a zero nibble (never looked up).
    for (std::size_t v = 0; v < n_; ++v) {
      if (v == d) continue;
      const std::size_t p = pair(v, d);
      const std::uint32_t s0 = static_cast<std::uint32_t>(2 * v);
      const std::uint8_t nib0 = static_cast<std::uint8_t>(
          (sc.step_port[s0] & 0x3u) | ((sc.step_phase[s0] & 1u) << 2));
      const std::uint8_t nib1 =
          sc.resolved[s0 + 1]
              ? static_cast<std::uint8_t>((sc.step_port[s0 + 1] & 0x3u) |
                                          ((sc.step_phase[s0 + 1] & 1u) << 2))
              : 0;
      hop_[p] = static_cast<std::uint8_t>(nib0 | (nib1 << 4));
      meta_[p] = static_cast<std::uint8_t>((sc.deliv[s0] & 0x3u) |
                                           (sc.shiftc[s0] << 4));
      header_[p] = sc.shiftc[s0] == kTableRouted ? 0 : sc.hdr[s0];
    }
  };

  parallel_items(
      n_, build_threads, [states] { return PairScratch(states); },
      resolve_destination);
}

void RouteTable::append_moves(std::size_t src_idx, std::size_t dst_idx,
                              std::vector<Direction>& out) const {
  MANGO_ASSERT(src_idx < n_ && dst_idx < n_, "route table index out of range");
  if (src_idx == dst_idx) {
    if (self_unavailable_[src_idx]) {
      routing_->self_route(routing_->topology().node_at(src_idx));  // throws
    }
    out.insert(out.end(), self_moves_.begin() + self_offsets_[src_idx],
               self_moves_.begin() + self_offsets_[src_idx + 1]);
    return;
  }
  std::size_t cur = src_idx;
  unsigned phase = 0;
  std::size_t guard = 2 * n_ + 2;
  while (cur != dst_idx) {
    MANGO_ASSERT(guard-- > 0, "route-table chain walk does not terminate");
    const NextHop nh = next_hop(cur, dst_idx, phase);
    out.push_back(direction_of(nh.port));
    const std::uint32_t a = adj(cur, nh.port);
    MANGO_ASSERT(a != kNoLink, "route-table chain walks an unwired port");
    cur = a >> 2;
    phase = nh.phase;
  }
}

PortIdx RouteTable::delivery_port(std::size_t src_idx,
                                  std::size_t dst_idx) const {
  MANGO_ASSERT(src_idx < n_ && dst_idx < n_, "route table index out of range");
  if (src_idx == dst_idx) {
    if (self_unavailable_[src_idx]) {
      routing_->self_route(routing_->topology().node_at(src_idx));  // throws
    }
    return static_cast<PortIdx>(self_delivery_[src_idx]);
  }
  return static_cast<PortIdx>(meta_[pair(src_idx, dst_idx)] & 0x3u);
}

unsigned RouteTable::hops(std::size_t src_idx, std::size_t dst_idx) const {
  MANGO_ASSERT(src_idx < n_ && dst_idx < n_, "route table index out of range");
  if (src_idx == dst_idx) {
    if (self_unavailable_[src_idx]) {
      routing_->self_route(routing_->topology().node_at(src_idx));  // throws
    }
    return self_offsets_[src_idx + 1] - self_offsets_[src_idx];
  }
  const std::uint8_t code = shift_code(src_idx, dst_idx);
  if (code != kTableRouted) return 14u - code;  // shift 28 - 2*hops
  std::vector<Direction> mv;
  append_moves(src_idx, dst_idx, mv);
  return static_cast<unsigned>(mv.size());
}

BeHeader RouteTable::be_header(std::size_t src_idx, std::size_t dst_idx,
                               LocalIface iface) const {
  MANGO_ASSERT(src_idx < n_ && dst_idx < n_, "route table index out of range");
  if (src_idx == dst_idx) {
    if (self_unavailable_[src_idx]) {
      routing_->self_route(routing_->topology().node_at(src_idx));  // throws
    }
    const std::uint8_t shift = self_shift_[src_idx];
    if (shift == kNoHeader) {
      // Over budget: rebuild through the legacy path so the ModelError
      // is byte-identical to build_be_header's.
      BeRoute r;
      r.moves.assign(self_moves_.begin() + self_offsets_[src_idx],
                     self_moves_.begin() + self_offsets_[src_idx + 1]);
      r.delivery =
          direction_of(static_cast<PortIdx>(self_delivery_[src_idx]));
      r.iface = iface;
      return BeHeader{build_be_header(r), false};  // throws
    }
    return BeHeader{self_header_[src_idx] |
                        (static_cast<std::uint32_t>(iface) << shift),
                    false};
  }
  const std::size_t p = pair(src_idx, dst_idx);
  const std::uint8_t code = static_cast<std::uint8_t>(meta_[p] >> 4);
  if (code == kTableRouted) {
    // The scalable scheme: selected exactly when the route is over the
    // paper's 15-code budget (> 14 hops).
    return BeHeader{make_table_header(dst_idx, iface), true};
  }
  return BeHeader{
      header_[p] | (static_cast<std::uint32_t>(iface) << (2u * code)), false};
}

// --- deadlock validator ------------------------------------------------------

namespace {

std::string channel_name(const Topology& topo, std::uint32_t chan) {
  const unsigned vc = chan % kMaxBeVcs;
  const unsigned port = (chan / kMaxBeVcs) % kNumDirections;
  const std::size_t node = chan / (kMaxBeVcs * kNumDirections);
  return to_string(topo.node_at(node)) + "." +
         port_name(static_cast<PortIdx>(port)) + "/vc" + std::to_string(vc);
}

/// Accumulates the channel-dependency graph of walked routes and runs
/// the cycle check — shared by the virtual-interface and materialized-
/// table entry points so both validate the identical walk semantics.
class CdgBuilder {
 public:
  CdgBuilder(const Topology& topo, const BeVcClassMap& map, bool classes)
      : topo_(topo),
        map_(map),
        classes_(classes),
        deps_(topo.node_count() * kNumDirections * kMaxBeVcs) {}

  void add_route(NodeId src, NodeId dst, const Direction* mv,
                 std::size_t len) {
    NodeId cur = src;
    PortIdx in = kLocalPort;
    unsigned vc = 0;
    std::optional<std::uint32_t> prev;
    for (std::size_t k = 0; k < len; ++k) {
      const Direction d = mv[k];
      const std::size_t ci = topo_.index(cur);
      MANGO_ASSERT(!is_network_port(in) || in != port_of(d),
                   "route " + to_string(src) + "->" + to_string(dst) +
                       " u-turns at " + to_string(cur) +
                       " (reads as the local-delivery code)");
      if (classes_) {
        vc = be_vc_class_step(in, d, vc, map_.dateline[ci][port_of(d)]);
      }
      const auto chan = static_cast<std::uint32_t>(
          (ci * kNumDirections + port_of(d)) * kMaxBeVcs + vc);
      if (prev.has_value()) add_edge(*prev, chan);
      prev = chan;
      const auto peer = topo_.link_peer(cur, port_of(d));
      MANGO_ASSERT(peer.has_value(),
                   "route " + to_string(src) + "->" + to_string(dst) +
                       " uses the unwired port " + port_name(port_of(d)) +
                       " at " + to_string(cur));
      cur = peer->node;
      in = peer->port;
    }
    MANGO_ASSERT(cur == dst, "route " + to_string(src) + "->" +
                                 to_string(dst) + " ends at " +
                                 to_string(cur));
  }

  /// Record a single channel dependency directly — used by the memoized
  /// table sweep, which enumerates the same consecutive-channel pairs as
  /// add_route without re-walking whole routes.
  void add_edge(std::uint32_t from, std::uint32_t to) {
    if (from == to) return;
    auto& out = deps_[from];
    if (std::find(out.begin(), out.end(), to) == out.end()) {
      out.push_back(to);
      // Certificate of the graph actually built: count plus an
      // order-sensitive FNV-1a over the insertion sequence, so two
      // checks can prove they examined the same CDG.
      ++edges_;
      digest_ = (digest_ ^ from) * 1099511628211ull;
      digest_ = (digest_ ^ to) * 1099511628211ull;
    }
  }

  /// Iterative 3-colour DFS; a back edge is a dependency cycle.
  DeadlockCheck finish() const {
    DeadlockCheck out;
    out.edges = edges_;
    out.digest = digest_;
    const std::size_t chans = deps_.size();
    enum : std::uint8_t { kWhite, kGrey, kBlack };
    std::vector<std::uint8_t> color(chans, kWhite);
    std::vector<std::uint32_t> stack;
    std::vector<std::size_t> edge_pos(chans, 0);
    for (std::uint32_t root = 0; root < chans; ++root) {
      if (color[root] != kWhite || deps_[root].empty()) continue;
      stack.push_back(root);
      color[root] = kGrey;
      while (!stack.empty()) {
        const std::uint32_t u = stack.back();
        if (edge_pos[u] < deps_[u].size()) {
          const std::uint32_t v = deps_[u][edge_pos[u]++];
          if (color[v] == kGrey) {
            // Report the cycle: the grey stack from v back to u.
            out.acyclic = false;
            const auto it = std::find(stack.begin(), stack.end(), v);
            for (auto s = it; s != stack.end(); ++s) {
              out.cycle += channel_name(topo_, *s) + " -> ";
            }
            out.cycle += channel_name(topo_, v);
            return out;
          }
          if (color[v] == kWhite) {
            color[v] = kGrey;
            stack.push_back(v);
          }
        } else {
          color[u] = kBlack;
          stack.pop_back();
        }
      }
    }
    return out;
  }

 private:
  const Topology& topo_;
  const BeVcClassMap& map_;
  bool classes_;
  std::vector<std::vector<std::uint32_t>> deps_;
  std::uint64_t edges_ = 0;
  std::uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
};

}  // namespace

DeadlockCheck check_deadlock_freedom(const Topology& topo,
                                     const RoutingAlgorithm& routing,
                                     unsigned be_vcs) {
  const std::size_t n = topo.node_count();
  const BeVcClassMap map = routing.vc_class_map();
  // The dateline rule only takes effect when the router configuration
  // actually has a second BE VC — modelling exactly what the hardware
  // would do, so a torus forced onto one VC is correctly reported as
  // cyclic.
  const bool classes = map.enabled && be_vcs >= 2;
  CdgBuilder builder(topo, map, classes);

  // Exhaustive pair coverage up to 512 nodes; beyond that, a
  // deterministic stratified subset (every k-th node as src and as dst)
  // bounds validation cost on very large fabrics.
  const std::size_t stride = n <= 512 ? 1 : (n + 511) / 512;
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < n; i += stride) sample.push_back(i);

  for (const std::size_t si : sample) {
    for (const std::size_t di : sample) {
      if (si == di) continue;
      const NodeId src = topo.node_at(si);
      const NodeId dst = topo.node_at(di);
      const std::vector<Direction> moves = routing.route(src, dst);
      builder.add_route(src, dst, moves.data(), moves.size());
    }
  }
  return builder.finish();
}

namespace {

/// Per-worker scratch for the memoized table sweep: visited stamps are
/// per-destination epochs, so the array is never cleared.
struct SweepScratch {
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;

  explicit SweepScratch(std::size_t states) : stamp(states, 0) {}
};

}  // namespace

DeadlockCheck check_deadlock_freedom(const Topology& topo,
                                     const RouteTable& table,
                                     const BeVcClassMap& vc_map,
                                     unsigned be_vcs,
                                     unsigned threads) {
  const std::size_t n = table.node_count();
  const bool classes = vc_map.enabled && be_vcs >= 2;
  // Exhaustive pair coverage up to 1024 nodes; beyond that the same
  // deterministic stratified sampling as the virtual check bounds the
  // sweep on 4096-node fabrics.
  const std::size_t stride = n <= 1024 ? 1 : (n + 1023) / 1024;
  std::vector<std::size_t> dsts;
  for (std::size_t di = 0; di < n; di += stride) dsts.push_back(di);

  // Memoized extended-state sweep. After a hop's outgoing VC class is
  // resolved, the remainder of the walk — its whole channel sequence —
  // is a function of (node, routing phase, outgoing VC) alone, so per
  // destination each such state is expanded at most once. A walk that
  // reaches an already-stamped state emits only the edge INTO that
  // state's outgoing channel (its predecessor channel is new) and
  // stops; the suffix edges were recorded by the first expansion. The
  // emitted edge set is therefore exactly the union, over all sampled
  // routes, of their consecutive-channel pairs — the same CDG the
  // per-pair route walk builds — at O(states) instead of
  // O(pairs x hops) per destination.
  //
  // Parallel shape: destinations are independent (stamps are private
  // per destination), so workers collect each destination's emitted
  // (prev, next) sequence — in discovery order — into its own slot, and
  // a serial merge feeds them to the builder in destination order. That
  // replays the single-threaded insertion sequence exactly, so the
  // dedup outcome, DFS order, cycle string, edge count and digest are
  // identical for every thread count (the threads == 1 path runs the
  // same collect-then-merge code).
  constexpr std::uint32_t kNoChan = 0xFFFFFFFFu;
  const std::size_t states = n * 2 * kMaxBeVcs;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> emitted(
      dsts.size());

  parallel_items(
      dsts.size(), threads, [states] { return SweepScratch(states); },
      [&](std::size_t k, SweepScratch& sc) {
        const std::size_t di = dsts[k];
        auto& edges = emitted[k];
        ++sc.epoch;
        for (std::size_t si = 0; si < n; si += stride) {
          if (si == di) continue;  // self-routes carry no inter-packet deps
          std::size_t cur = si;
          unsigned phase = 0;
          PortIdx in = kLocalPort;
          unsigned vc = 0;
          std::uint32_t prev_chan = kNoChan;
          std::size_t guard = 2 * n + 2;
          while (cur != di) {
            MANGO_ASSERT(guard-- > 0,
                         "route-table chain walk does not terminate");
            const NextHop nh = table.next_hop(cur, di, phase);
            MANGO_ASSERT(!is_network_port(in) || in != nh.port,
                         "route " + to_string(topo.node_at(si)) + "->" +
                             to_string(topo.node_at(di)) + " u-turns at " +
                             to_string(topo.node_at(cur)) +
                             " (reads as the local-delivery code)");
            if (classes) {
              vc = be_vc_class_step(in, direction_of(nh.port), vc,
                                    vc_map.dateline[cur][nh.port]);
            }
            const auto chan = static_cast<std::uint32_t>(
                (cur * kNumDirections + nh.port) * kMaxBeVcs + vc);
            if (prev_chan != kNoChan) edges.emplace_back(prev_chan, chan);
            const std::size_t key = (cur * 2 + phase) * kMaxBeVcs + vc;
            if (sc.stamp[key] == sc.epoch) break;  // suffix already expanded
            sc.stamp[key] = sc.epoch;
            const std::uint32_t a = table.adj(cur, nh.port);
            MANGO_ASSERT(a != RouteTable::kNoLink,
                         "route " + to_string(topo.node_at(si)) + "->" +
                             to_string(topo.node_at(di)) +
                             " uses the unwired port " + port_name(nh.port) +
                             " at " + to_string(topo.node_at(cur)));
            prev_chan = chan;
            cur = a >> 2;
            in = static_cast<PortIdx>(a & 0x3u);
            phase = nh.phase;
          }
        }
      });

  CdgBuilder builder(topo, vc_map, classes);
  for (const auto& edges : emitted) {
    for (const auto& [from, to] : edges) builder.add_edge(from, to);
  }
  return builder.finish();
}

}  // namespace mango::noc
