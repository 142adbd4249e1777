#include "noc/network/topology.hpp"

#include <algorithm>

#include "sim/assert.hpp"

namespace mango::noc {

// --- kinds -------------------------------------------------------------------

const char* to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::kMesh: return "mesh";
    case TopologyKind::kTorus: return "torus";
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kGraph: return "graph";
    case TopologyKind::kCMesh: return "cmesh";
  }
  return "?";
}

std::optional<TopologyKind> topology_kind_from_string(const std::string& s) {
  for (const TopologyKind k : all_topology_kinds()) {
    if (s == to_string(k)) return k;
  }
  // Not a member of the generic iteration set (see the header), but
  // nameable wherever a kind is parsed.
  if (s == to_string(TopologyKind::kCMesh)) return TopologyKind::kCMesh;
  return std::nullopt;
}

std::vector<TopologyKind> all_topology_kinds() {
  return {TopologyKind::kMesh, TopologyKind::kTorus, TopologyKind::kRing,
          TopologyKind::kGraph};
}

// --- GraphSpec ---------------------------------------------------------------

GraphSpec GraphSpec::parse(const std::string& s) {
  GraphSpec spec;
  std::size_t pos = 0;
  std::uint16_t max_node = 0;
  while (pos < s.size()) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    const std::string tok = s.substr(pos, comma - pos);
    const std::size_t dash = tok.find('-');
    MANGO_ASSERT(dash != std::string::npos && dash > 0 &&
                     dash + 1 < tok.size(),
                 "graph edge '" + tok + "' is not of the form a-b");
    const auto to_node = [&tok](const std::string& part) -> std::uint16_t {
      MANGO_ASSERT(!part.empty() && part.size() <= 5 &&
                       part.find_first_not_of("0123456789") == std::string::npos,
                   "graph node '" + part + "' in '" + tok +
                       "' is not a number");
      const unsigned long v = std::stoul(part);
      // <= 65534 so node_count = max + 1 still fits the 16-bit label.
      MANGO_ASSERT(v <= 65534, "graph node index " + part + " out of range");
      return static_cast<std::uint16_t>(v);
    };
    const std::uint16_t a = to_node(tok.substr(0, dash));
    const std::uint16_t b = to_node(tok.substr(dash + 1));
    spec.edges.emplace_back(a, b);
    max_node = std::max({max_node, a, b});
    pos = comma + 1;
  }
  MANGO_ASSERT(!spec.edges.empty(), "graph spec has no edges");
  spec.node_count = static_cast<std::uint16_t>(max_node + 1);
  return spec;
}

GraphSpec GraphSpec::irregular(std::uint16_t nodes) {
  MANGO_ASSERT(nodes >= 2, "an irregular graph needs at least two nodes");
  GraphSpec spec;
  spec.node_count = nodes;
  // Ternary-tree backbone: node i hangs off (i-1)/3. Node degrees are at
  // most 4 (parent + three children), leaving leaves room for chords.
  for (std::uint16_t i = 1; i < nodes; ++i) {
    spec.edges.emplace_back(i, static_cast<std::uint16_t>((i - 1) / 3));
  }
  // Chords pair up consecutive leaves, adding cycles (alternative paths
  // beyond the tree) while keeping shortest-path routing's channel
  // dependencies acyclic (asserted by the deadlock validator and the
  // routing property tests).
  std::vector<std::uint16_t> leaves;
  for (std::uint16_t i = 0; i < nodes; ++i) {
    if (3u * i + 1 >= nodes) leaves.push_back(i);
  }
  for (std::size_t j = 0; j + 1 < leaves.size(); j += 2) {
    spec.edges.emplace_back(leaves[j], leaves[j + 1]);
  }
  return spec;
}

GraphSpec GraphSpec::ring_of_meshes(std::uint16_t meshes, std::uint16_t w,
                                    std::uint16_t h) {
  MANGO_ASSERT(meshes >= 2, "a ring of meshes needs at least two meshes");
  MANGO_ASSERT(w >= 2 && h >= 1, "a ring of meshes needs w >= 2 per mesh");
  const std::size_t per = static_cast<std::size_t>(w) * h;
  const std::size_t total = per * meshes;
  MANGO_ASSERT(total <= 65535, "ring of meshes exceeds the 16-bit node label");
  GraphSpec spec;
  spec.node_count = static_cast<std::uint16_t>(total);
  const auto at = [&](std::uint16_t m, std::uint16_t x,
                      std::uint16_t y) -> std::uint16_t {
    return static_cast<std::uint16_t>(m * per + y * w + x);
  };
  // Internal mesh edges, row-major within each mesh block.
  for (std::uint16_t m = 0; m < meshes; ++m) {
    for (std::uint16_t y = 0; y < h; ++y) {
      for (std::uint16_t x = 0; x < w; ++x) {
        if (x + 1 < w) spec.edges.emplace_back(at(m, x, y), at(m, x + 1, y));
        if (y + 1 < h) spec.edges.emplace_back(at(m, x, y), at(m, x, y + 1));
      }
    }
  }
  // Ring stitches between corner nodes: mesh corners have internal
  // degree 2, so the extra hop stays within the four-port budget.
  for (std::uint16_t m = 0; m < meshes; ++m) {
    spec.edges.emplace_back(
        at(m, static_cast<std::uint16_t>(w - 1), 0),
        at(static_cast<std::uint16_t>((m + 1) % meshes), 0, 0));
  }
  return spec;
}

GraphSpec GraphSpec::express_ring(std::uint16_t nodes, std::uint16_t hop) {
  MANGO_ASSERT(hop >= 2, "express chords of length < 2 duplicate ring links");
  MANGO_ASSERT(nodes > 2u * hop,
               "an express ring needs nodes > 2 * hop for the chords to cut "
               "the diameter");
  GraphSpec spec;
  spec.node_count = nodes;
  for (std::uint16_t i = 0; i < nodes; ++i) {
    spec.edges.emplace_back(i, static_cast<std::uint16_t>((i + 1) % nodes));
  }
  // Chords at every multiple of hop (no wrap chord): ring degree 2 + at
  // most one chord out and one in = degree 4.
  for (std::uint32_t i = 0; i + hop < nodes; i += hop) {
    spec.edges.emplace_back(static_cast<std::uint16_t>(i),
                            static_cast<std::uint16_t>(i + hop));
  }
  return spec;
}

// --- TopologySpec ------------------------------------------------------------

TopologySpec TopologySpec::mesh(std::uint16_t w, std::uint16_t h) {
  TopologySpec s;
  s.kind = TopologyKind::kMesh;
  s.width = w;
  s.height = h;
  return s;
}

TopologySpec TopologySpec::torus(std::uint16_t w, std::uint16_t h) {
  TopologySpec s;
  s.kind = TopologyKind::kTorus;
  s.width = w;
  s.height = h;
  return s;
}

TopologySpec TopologySpec::ring(std::uint16_t nodes) {
  TopologySpec s;
  s.kind = TopologyKind::kRing;
  s.width = nodes;
  s.height = 1;
  return s;
}

TopologySpec TopologySpec::irregular(GraphSpec g) {
  TopologySpec s;
  s.kind = TopologyKind::kGraph;
  s.width = g.node_count;
  s.height = 1;
  s.graph = std::move(g);
  return s;
}

TopologySpec TopologySpec::cmesh(std::uint16_t w, std::uint16_t h,
                                 std::uint16_t cores_per_router) {
  TopologySpec s;
  s.kind = TopologyKind::kCMesh;
  s.width = w;
  s.height = h;
  s.concentration = cores_per_router;
  return s;
}

std::size_t TopologySpec::node_count() const {
  if (kind == TopologyKind::kGraph) return graph.node_count;
  return static_cast<std::size_t>(width) * height;
}

std::string TopologySpec::label() const {
  switch (kind) {
    case TopologyKind::kMesh:
    case TopologyKind::kTorus:
      return std::string(to_string(kind)) + "-" + std::to_string(width) +
             "x" + std::to_string(height);
    case TopologyKind::kRing:
    case TopologyKind::kGraph:
      return std::string(to_string(kind)) + "-" +
             std::to_string(node_count());
    case TopologyKind::kCMesh:
      return std::string(to_string(kind)) + "-" + std::to_string(width) +
             "x" + std::to_string(height) + "c" +
             std::to_string(concentration);
  }
  return "?";
}

// --- Topology ----------------------------------------------------------------

namespace {

/// The spec as its kind's factory spells it, so every field the rest of
/// the model reads (width, height, concentration) is consistent with the
/// kind: a graph's width is its node count, a ring is one row, a plain
/// mesh carries no concentration.
TopologySpec canonical(const TopologySpec& s) {
  switch (s.kind) {
    case TopologyKind::kMesh: return TopologySpec::mesh(s.width, s.height);
    case TopologyKind::kTorus: return TopologySpec::torus(s.width, s.height);
    case TopologyKind::kRing:
      // Ring labels are {i, 0}: the node count must fit 16 bits.
      MANGO_ASSERT(s.node_count() <= 0xFFFF,
                   "a ring supports at most 65535 nodes (got " +
                       std::to_string(s.node_count()) + ")");
      return TopologySpec::ring(static_cast<std::uint16_t>(s.node_count()));
    case TopologyKind::kGraph: return TopologySpec::irregular(s.graph);
    case TopologyKind::kCMesh:
      return TopologySpec::cmesh(s.width, s.height, s.concentration);
  }
  model_fail("unknown topology kind");
}

std::uint32_t pack_peer(std::size_t peer_idx, PortIdx arrival) {
  return static_cast<std::uint32_t>((peer_idx << 2) | (arrival & 0x3u));
}

}  // namespace

Topology::Topology(const TopologySpec& spec) : spec_(canonical(spec)) {
  const std::uint16_t w = spec_.width;
  const std::uint16_t h = spec_.height;
  switch (spec_.kind) {
    case TopologyKind::kMesh:
    case TopologyKind::kCMesh:
      MANGO_ASSERT(w >= 1 && h >= 1, "degenerate mesh");
      MANGO_ASSERT(spec_.concentration >= 1,
                   "a concentrated mesh needs at least one core per router");
      wire_grid(false);
      return;
    case TopologyKind::kTorus:
      MANGO_ASSERT(w >= 2 && h >= 2,
                   "a torus needs both dimensions >= 2 (wrap links would be "
                   "self-loops otherwise) — use ring for 1D");
      wire_grid(true);
      return;
    case TopologyKind::kRing:
      MANGO_ASSERT(w >= 2, "a ring needs at least two nodes");
      wire_grid(true);
      return;
    case TopologyKind::kGraph:
      wire_graph();
      return;
  }
}

void Topology::wire_grid(bool wrap) {
  const std::uint16_t w = spec_.width;
  const std::uint16_t h = spec_.height;
  const bool wrap_x = wrap && w >= 2;
  const bool wrap_y = wrap && h >= 2;
  adj_.assign(node_count() * kNumDirections, kNoLink);
  for (std::size_t i = 0; i < node_count(); ++i) {
    const NodeId n = node_at(i);
    const auto wire = [&](Direction d, unsigned x, unsigned y) {
      adj_[i * kNumDirections + port_of(d)] =
          pack_peer(static_cast<std::size_t>(y) * w + x, port_of(opposite(d)));
    };
    if (n.y + 1 < h || wrap_y) wire(Direction::kNorth, n.x, (n.y + 1) % h);
    if (n.x + 1 < w || wrap_x) wire(Direction::kEast, (n.x + 1) % w, n.y);
    if (n.y > 0 || wrap_y) wire(Direction::kSouth, n.x, (n.y + h - 1) % h);
    if (n.x > 0 || wrap_x) wire(Direction::kWest, (n.x + w - 1) % w, n.y);
  }
}

void Topology::wire_graph() {
  const GraphSpec& g = spec_.graph;
  MANGO_ASSERT(g.node_count >= 2, "a graph topology needs >= 2 nodes");
  adj_.assign(node_count() * kNumDirections, kNoLink);
  const auto first_free_port = [this](std::uint16_t node) -> PortIdx {
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      if (adj(node, p) == kNoLink) return p;
    }
    model_fail("graph node " + std::to_string(node) +
               " exceeds the four router ports (degree > 4)");
  };
  for (const auto& [a, b] : g.edges) {
    MANGO_ASSERT(a < g.node_count && b < g.node_count,
                 "graph edge endpoint out of range");
    MANGO_ASSERT(a != b, "graph self-loops are not supported");
    const PortIdx pa = first_free_port(a);
    const PortIdx pb = first_free_port(b);
    adj_[a * kNumDirections + pa] = pack_peer(b, pb);
    adj_[b * kNumDirections + pb] = pack_peer(a, pa);
  }
  // Connectivity check: every node must be reachable, or routing (and
  // link wiring) would silently strand traffic.
  std::vector<bool> seen(g.node_count, false);
  std::vector<std::size_t> frontier{0};
  seen[0] = true;
  while (!frontier.empty()) {
    const std::size_t cur = frontier.back();
    frontier.pop_back();
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      const std::uint32_t a = adj(cur, p);
      if (a != kNoLink && !seen[a >> 2]) {
        seen[a >> 2] = true;
        frontier.push_back(a >> 2);
      }
    }
  }
  MANGO_ASSERT(std::find(seen.begin(), seen.end(), false) == seen.end(),
               "graph topology is disconnected");
}

void Topology::fail_not_member(NodeId n) const {
  model_fail("node " + to_string(n) + " is not in the topology " + label());
}

void Topology::fail_index(std::size_t idx) {
  model_fail("node index " + std::to_string(idx) + " out of range");
}

std::optional<PortPeer> Topology::link_peer(NodeId n, PortIdx p) const {
  const std::size_t i = index(n);
  if (!is_network_port(p)) return std::nullopt;
  const std::uint32_t a = adj(i, p);
  if (a == kNoLink) return std::nullopt;
  return PortPeer{node_at(a >> 2), static_cast<PortIdx>(a & 0x3u)};
}

unsigned Topology::degree(NodeId n) const {
  const std::size_t i = index(n);
  unsigned d = 0;
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    if (adj(i, p) != kNoLink) ++d;
  }
  return d;
}

std::optional<Topology::WalkEnd> Topology::walk(
    NodeId src, const std::vector<Direction>& moves) const {
  if (moves.empty()) return std::nullopt;
  NodeId cur = src;
  PortIdx arrival = 0;
  for (const Direction d : moves) {
    const auto peer = link_peer(cur, port_of(d));
    if (!peer.has_value()) return std::nullopt;
    cur = peer->node;
    arrival = peer->port;
  }
  return WalkEnd{cur, arrival};
}

bool Topology::route_reaches(NodeId src, NodeId dst,
                             const std::vector<Direction>& moves) const {
  if (moves.empty()) return src == dst;
  const auto end = walk(src, moves);
  return end.has_value() && end->node == dst;
}

std::vector<unsigned> partition_shards(std::size_t node_count,
                                       unsigned shards) {
  MANGO_ASSERT(node_count > 0, "cannot partition an empty topology");
  if (shards == 0) {
    model_fail("a sharded run needs at least one shard");
  }
  const auto n = static_cast<unsigned>(
      shards > node_count ? node_count : static_cast<std::size_t>(shards));
  const std::size_t base = node_count / n;
  const std::size_t extra = node_count % n;
  std::vector<unsigned> owner(node_count);
  std::size_t idx = 0;
  for (unsigned s = 0; s < n; ++s) {
    const std::size_t span = base + (s < extra ? 1 : 0);
    for (std::size_t k = 0; k < span; ++k) owner[idx++] = s;
  }
  MANGO_ASSERT(idx == node_count, "partition did not cover every node");
  return owner;
}

std::vector<unsigned> partition_shards(
    const std::vector<std::uint64_t>& weights, unsigned shards) {
  const std::size_t node_count = weights.size();
  MANGO_ASSERT(node_count > 0, "cannot partition an empty topology");
  if (shards == 0) {
    model_fail("a sharded run needs at least one shard");
  }
  const auto n = static_cast<unsigned>(
      shards > node_count ? node_count : static_cast<std::size_t>(shards));
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  if (total == 0) return partition_shards(node_count, n);

  std::vector<unsigned> owner(node_count);
  std::size_t idx = 0;       // first index of the current stripe
  std::uint64_t prefix = 0;  // weight of indices [0, idx)
  for (unsigned s = 0; s < n; ++s) {
    // The stripe ends at the smallest index whose prefix weight reaches
    // the proportional target — but never short of one node, never so
    // far that a later stripe would come up empty, and the last stripe
    // always runs to the end (trailing zero-weight nodes must still be
    // owned).
    const std::uint64_t target = total * (s + 1) / n;
    const std::size_t max_end = node_count - (n - 1 - s);
    std::size_t end = idx;
    do {
      prefix += weights[end];
      owner[end] = s;
      ++end;
    } while (end < max_end && (prefix < target || s + 1 == n));
    idx = end;
  }
  MANGO_ASSERT(idx == node_count, "partition did not cover every node");
  return owner;
}

std::vector<std::uint64_t> partition_weights(const Topology& topo) {
  std::vector<std::uint64_t> w(topo.node_count());
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    w[i] = topo.degree(topo.node_at(i)) + topo.spec().concentration;
  }
  return w;
}

// --- factory -----------------------------------------------------------------

std::unique_ptr<Topology> make_topology(const TopologySpec& spec) {
  return std::make_unique<Topology>(spec);
}

}  // namespace mango::noc
