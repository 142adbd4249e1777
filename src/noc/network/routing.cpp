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

// --- XY on the mesh ----------------------------------------------------------

NextHop XyRouting::next_hop(NodeId node, NodeId dst, unsigned) const {
  // XY: finish x before y (xy_route is the same walk, whole).
  if (node.x != dst.x) {
    return NextHop{
        port_of(node.x < dst.x ? Direction::kEast : Direction::kWest), 0};
  }
  MANGO_ASSERT(node.y != dst.y, "next_hop at the destination");
  return NextHop{
      port_of(node.y < dst.y ? Direction::kNorth : Direction::kSouth), 0};
}

// --- dimension-ordered torus -------------------------------------------------

namespace {

/// One minimal step along one wrap dimension: distance `fwd` going the
/// positive direction, `extent - fwd` going back; ties go forward.
/// Memoryless: moving toward `to` only shrinks the chosen side of the
/// comparison (ties go forward both before and after the step), so the
/// walk of these steps is a minimal route.
Direction dim_step(unsigned from, unsigned to, unsigned extent,
                   Direction fwd_dir, Direction back_dir) {
  const unsigned fwd = (to + extent - from) % extent;
  const unsigned back = extent - fwd;
  return fwd <= back ? fwd_dir : back_dir;
}

}  // namespace

NextHop TorusDorRouting::next_hop(NodeId node, NodeId dst, unsigned) const {
  if (node.x != dst.x) {
    return NextHop{port_of(dim_step(node.x, dst.x, topo_.spec().width,
                                    Direction::kEast, Direction::kWest)),
                   0};
  }
  MANGO_ASSERT(node.y != dst.y, "next_hop at the destination");
  return NextHop{port_of(dim_step(node.y, dst.y, topo_.spec().height,
                                  Direction::kNorth, Direction::kSouth)),
                 0};
}

BeVcClassMap TorusDorRouting::vc_class_map() const {
  const std::uint16_t w = topo_.spec().width;
  const std::uint16_t h = topo_.spec().height;
  BeVcClassMap map;
  map.enabled = true;
  map.dateline.resize(topo_.node_count());
  for (std::size_t i = 0; i < topo_.node_count(); ++i) {
    const NodeId n = topo_.node_at(i);
    // The wrap links are the datelines: forwarding East off the high-x
    // edge (or West off x=0, North off the high-y edge, South off y=0)
    // crosses one.
    map.dateline[i][port_of(Direction::kEast)] = n.x + 1 == w;
    map.dateline[i][port_of(Direction::kWest)] = n.x == 0;
    map.dateline[i][port_of(Direction::kNorth)] = n.y + 1 == h;
    map.dateline[i][port_of(Direction::kSouth)] = n.y == 0;
  }
  return map;
}

// --- ring --------------------------------------------------------------------

NextHop RingRouting::next_hop(NodeId node, NodeId dst, unsigned) const {
  const unsigned n = static_cast<unsigned>(topo_.node_count());
  MANGO_ASSERT(node.x != dst.x, "next_hop at the destination");
  return NextHop{port_of(dim_step(node.x, dst.x, n, Direction::kEast,
                                  Direction::kWest)),
                 0};
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
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      const std::uint32_t a = topo.adj(cur, p);
      if (a == Topology::kNoLink) continue;
      const std::size_t pi = a >> 2;
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
      // Predecessors v with a legal step v -> u landing in state s.
      for (PortIdx p = 0; p < kNumDirections; ++p) {
        const std::uint32_t a = topo.adj(u, p);
        if (a == Topology::kNoLink) continue;
        const std::size_t v = a >> 2;
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

NextHop UpDownRouting::next_hop(NodeId node, NodeId dst,
                                unsigned phase) const {
  // Greedy descent over the legal-step state graph: the first port (in
  // port order) one legal hop closer to dst — including the phase
  // evolution (phase 1 after the first down move), which is exactly the
  // bit the table-routed header carries.
  const auto& d = dist_[topo_.index(dst)];
  const std::size_t cur_idx = topo_.index(node);
  MANGO_ASSERT(cur_idx != topo_.index(dst), "next_hop at the destination");
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    const std::uint32_t a = topo_.adj(cur_idx, p);
    if (a == Topology::kNoLink) continue;
    const std::size_t pi = a >> 2;
    const bool up_move = is_up(cur_idx, pi);
    if (phase == 1 && up_move) continue;  // no down->up turns
    const unsigned next_phase = up_move ? phase : 1;
    if (d[2 * pi + next_phase] + 1 != d[2 * cur_idx + phase]) continue;
    return NextHop{p, static_cast<std::uint8_t>(next_phase)};
  }
  MANGO_ASSERT(false, "up*/down* table has no descent — corrupt table");
  return NextHop{};
}

// --- factory -----------------------------------------------------------------

std::unique_ptr<RoutingAlgorithm> make_routing(const Topology& topo) {
  switch (topo.kind()) {
    case TopologyKind::kMesh:
    case TopologyKind::kCMesh:
      // A concentrated mesh has the mesh's wires; XY applies unchanged
      // (concentration only multiplies traffic sources).
      return std::make_unique<XyRouting>(topo);
    case TopologyKind::kTorus:
      return std::make_unique<TorusDorRouting>(topo);
    case TopologyKind::kRing:
      return std::make_unique<RingRouting>(topo);
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
    : n_(topo.node_count()), topo_(&topo) {
  if (n_ > kDenseNodeLimit) {
    model_fail(topo.label() + " has " + std::to_string(n_) +
               " nodes; route tables support at most " +
               std::to_string(kDenseNodeLimit));
  }
  materialize_pairs(topo, routing, build_threads);
}

bool operator==(const RouteTable& a, const RouteTable& b) {
  return a.n_ == b.n_ && a.hop_ == b.hop_ && a.meta_ == b.meta_ &&
         a.header_ == b.header_;
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
  // immutable topology and routing and commits only its own
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
        const std::uint32_t a = topo.adj(node_idx, nh.port);
        MANGO_ASSERT(a != Topology::kNoLink,
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
                         " — next_hop() loops");
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

void RouteTable::check_pair(std::size_t src_idx, std::size_t dst_idx) const {
  MANGO_ASSERT(src_idx < n_ && dst_idx < n_, "route table index out of range");
  MANGO_ASSERT(src_idx != dst_idx,
               "no route from " + to_string(topo_->node_at(src_idx)) +
                   " to itself: a code pointing back the way a packet came "
                   "means local delivery (paper Section 5), so a node "
                   "reaches its own local port only through that port");
}

void RouteTable::append_moves(std::size_t src_idx, std::size_t dst_idx,
                              std::vector<Direction>& out) const {
  check_pair(src_idx, dst_idx);
  std::size_t cur = src_idx;
  unsigned phase = 0;
  std::size_t guard = 2 * n_ + 2;
  while (cur != dst_idx) {
    MANGO_ASSERT(guard-- > 0, "route-table chain walk does not terminate");
    const NextHop nh = next_hop(cur, dst_idx, phase);
    out.push_back(direction_of(nh.port));
    const std::uint32_t a = topo_->adj(cur, nh.port);
    MANGO_ASSERT(a != Topology::kNoLink,
                 "route-table chain walks an unwired port");
    cur = a >> 2;
    phase = nh.phase;
  }
}

PortIdx RouteTable::delivery_port(std::size_t src_idx,
                                  std::size_t dst_idx) const {
  check_pair(src_idx, dst_idx);
  return static_cast<PortIdx>(meta_[pair(src_idx, dst_idx)] & 0x3u);
}

unsigned RouteTable::hops(std::size_t src_idx, std::size_t dst_idx) const {
  check_pair(src_idx, dst_idx);
  const std::uint8_t code = shift_code(src_idx, dst_idx);
  if (code != kTableRouted) return 14u - code;  // shift 28 - 2*hops
  std::vector<Direction> mv;
  append_moves(src_idx, dst_idx, mv);
  return static_cast<unsigned>(mv.size());
}

BeHeader RouteTable::be_header(std::size_t src_idx, std::size_t dst_idx,
                               LocalIface iface) const {
  check_pair(src_idx, dst_idx);
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

/// Accumulates the channel-dependency graph of the table walks and runs
/// the cycle check.
class CdgBuilder {
 public:
  explicit CdgBuilder(const Topology& topo)
      : topo_(topo), deps_(topo.node_count() * kNumDirections * kMaxBeVcs) {}

  /// Record one channel dependency (deduplicated).
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
  std::vector<std::vector<std::uint32_t>> deps_;
  std::uint64_t edges_ = 0;
  std::uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
};

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
  // The dateline rule only takes effect when the router configuration
  // actually has a second BE VC — modelling exactly what the hardware
  // would do, so a torus forced onto one VC is correctly reported as
  // cyclic.
  const bool classes = vc_map.enabled && be_vcs >= 2;
  // Exhaustive pair coverage up to 1024 nodes; beyond that a
  // deterministic stratified subset (every k-th node as src and as dst)
  // bounds the sweep on 4096-node fabrics.
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
  // routes, of their consecutive-channel pairs — the CDG a per-pair
  // route walk would build — at O(states) instead of O(pairs x hops)
  // per destination.
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
          if (si == di) continue;  // no route from a node to itself
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
            const std::uint32_t a = topo.adj(cur, nh.port);
            MANGO_ASSERT(a != Topology::kNoLink,
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

  CdgBuilder builder(topo);
  for (const auto& edges : emitted) {
    for (const auto& [from, to] : edges) builder.add_edge(from, to);
  }
  return builder.finish();
}

DeadlockCheck check_deadlock_freedom(const Topology& topo,
                                     const RoutingAlgorithm& routing,
                                     unsigned be_vcs) {
  return check_deadlock_freedom(topo, RouteTable(topo, routing),
                                routing.vc_class_map(), be_vcs);
}

}  // namespace mango::noc
