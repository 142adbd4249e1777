#include "noc/network/connection_manager.hpp"

#include "noc/router/programming.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

std::vector<PathLink> route_links(const Network& net, NodeId src, NodeId dst) {
  MANGO_ASSERT(src != dst, "route_links needs two different nodes");
  const Topology& topo = net.topology();
  MANGO_ASSERT(topo.contains(src) && topo.contains(dst),
               "route endpoint out of bounds");
  const std::vector<Direction> moves = net.route_moves(src, dst);
  std::vector<PathLink> links;
  links.reserve(moves.size());
  NodeId cur = src;
  for (const Direction move : moves) {
    const PortIdx out = port_of(move);
    const auto peer = topo.link_peer(cur, out);
    MANGO_ASSERT(peer.has_value(), "route uses an unwired port");
    links.push_back(PathLink{topo.index(cur), out, topo.index(peer->node),
                             peer->port});
    cur = peer->node;
  }
  MANGO_ASSERT(cur == dst, "route did not reach the destination");
  return links;
}

const char* to_string(ConnState s) {
  switch (s) {
    case ConnState::kRequested: return "requested";
    case ConnState::kProgramming: return "programming";
    case ConnState::kReady: return "ready";
    case ConnState::kDraining: return "draining";
    case ConnState::kClearing: return "clearing";
    case ConnState::kClosed: return "closed";
  }
  return "?";
}

ConnectionManager::ConnectionManager(Network& net, NodeId host)
    : net_(net), host_(host) {
  MANGO_ASSERT(net_.topology().contains(host_), "host node out of bounds");
  host_programming_.bind_kernel(net_.simulator());
  // Track programming completion on every router. The observer fires
  // inside the firing router's shard kernel; the bookkeeping it triggers
  // reads manager state and may schedule packets from the host node, so
  // it is deferred onto the control plane — one fixed, shard-count-
  // independent deferral after the programming flit lands. At one shard
  // the post is a plain kernel event; at N the engine runs it with every
  // shard parked on its key, in the same deterministic order.
  for (std::size_t i = 0; i < net_.node_count(); ++i) {
    const NodeId n = net_.node_at(i);
    Router& r = net_.router(n);
    sim::Simulator& shard_sim = r.ctx().sim();
    r.programming().set_observer(
        [this, n, &shard_sim](std::uint32_t tag, unsigned words) {
          net_.control().post_deferred(
              shard_sim, [this, n, tag, words] { on_programmed(n, tag, words); });
        });
  }
}

unsigned ConnectionManager::used_vcs(std::size_t node_idx, PortIdx port) const {
  const unsigned cap = port == kLocalPort ? net_.config().router.local_gs_ifaces
                                          : net_.config().router.vcs_per_port;
  unsigned used = 0;
  for (VcIdx vc = 0; vc < cap; ++vc) {
    if (buffer_owner_.find(BufKey{node_idx, port, vc}) != buffer_owner_.end()) {
      ++used;
    }
  }
  return used;
}

VcIdx ConnectionManager::allocate_vc(NodeId node, PortIdx port) {
  const std::size_t idx = net_.topology().index(node);
  const unsigned vcs = net_.config().router.vcs_per_port;
  for (VcIdx vc = 0; vc < vcs; ++vc) {
    if (buffer_owner_.find(BufKey{idx, port, vc}) == buffer_owner_.end()) {
      return vc;
    }
  }
  model_fail("no free VC on " + to_string(node) + " port " + port_name(port));
}

LocalIfaceIdx ConnectionManager::allocate_local_source(NodeId node) {
  const std::size_t idx = net_.topology().index(node);
  auto& used = src_ifaces_used_[idx];
  used.resize(net_.config().router.local_gs_ifaces, false);
  for (LocalIfaceIdx i = 0; i < used.size(); ++i) {
    if (!used[i]) return i;
  }
  model_fail("no free GS source interface at " + to_string(node));
}

LocalIfaceIdx ConnectionManager::allocate_local_sink(NodeId node) {
  const std::size_t idx = net_.topology().index(node);
  const unsigned ifaces = net_.config().router.local_gs_ifaces;
  for (LocalIfaceIdx i = 0; i < ifaces; ++i) {
    if (buffer_owner_.find(BufKey{idx, kLocalPort, i}) == buffer_owner_.end()) {
      return i;
    }
  }
  model_fail("no free local output interface at " + to_string(node));
}

bool ConnectionManager::can_open(NodeId src, NodeId dst) const {
  if (src == dst || !net_.topology().contains(src) ||
      !net_.topology().contains(dst)) {
    return false;
  }
  std::vector<PathLink> links;
  try {
    links = route_links(net_, src, dst);
  } catch (const ModelError&) {
    return false;  // unroutable pair
  }
  // Local GS source interface at src.
  {
    const auto it = src_ifaces_used_.find(net_.topology().index(src));
    unsigned used = 0;
    if (it != src_ifaces_used_.end()) {
      for (const bool b : it->second) used += b ? 1u : 0u;
    }
    if (used >= net_.config().router.local_gs_ifaces) return false;
  }
  // One VC per traversed link port, plus a local output interface at
  // the destination.
  for (const PathLink& link : links) {
    if (used_vcs(link.node_idx, link.out_port) >=
        net_.config().router.vcs_per_port) {
      return false;
    }
  }
  return used_vcs(net_.topology().index(dst), kLocalPort) <
         net_.config().router.local_gs_ifaces;
}

std::vector<ConnectionManager::PlannedHop> ConnectionManager::plan(
    NodeId src, NodeId dst, LocalIfaceIdx& src_iface_out) {
  MANGO_ASSERT(src != dst,
               "a connection links two *different* local ports (Section 3)");
  // The GS path is the same one the BE source route takes: the shared
  // route_links() walk over the topology's port adjacency. `arrival[k]`
  // is the port hop k's router receives the connection on (k >= 1).
  const std::vector<PathLink> links = route_links(net_, src, dst);
  const std::size_t n = links.size();

  src_iface_out = allocate_local_source(src);

  // Pick buffers (no state mutation yet; commit() records ownership).
  std::vector<PlannedHop> hops;
  std::vector<PortIdx> arrival(n + 1, kLocalPort);
  hops.reserve(n + 1);
  for (std::size_t k = 0; k < n; ++k) {
    const NodeId node = net_.topology().node_at(links[k].node_idx);
    hops.push_back(PlannedHop{
        node, VcBufferId{links[k].out_port, allocate_vc(node, links[k].out_port)},
        std::nullopt, ReverseEntry{}});
    arrival[k + 1] = links[k].arrival_port;
  }
  hops.push_back(PlannedHop{dst, VcBufferId{kLocalPort, allocate_local_sink(dst)},
                            std::nullopt, ReverseEntry{}});

  // Forward steering: entry at hop k guides flits into hop k+1's buffer,
  // encoded against the *next* router's split map.
  for (std::size_t k = 0; k < n; ++k) {
    hops[k].forward = net_.router(hops[k + 1].node)
                          .switching()
                          .encode_gs(arrival[k + 1], hops[k + 1].buffer);
  }
  // Reverse map: hop 0 signals the source NA; hop k>0 signals back over
  // the link it receives from, on the previous buffer's VC wire.
  hops[0].reverse = ReverseEntry{kLocalPort, src_iface_out};
  for (std::size_t k = 1; k <= n; ++k) {
    hops[k].reverse = ReverseEntry{arrival[k], hops[k - 1].buffer.vc};
  }
  return hops;
}

ConnectionManager::Record& ConnectionManager::commit(
    NodeId src, NodeId dst, LocalIfaceIdx src_iface,
    std::vector<PlannedHop> hops) {
  const ConnectionId id = next_id_++;
  Connection conn;
  conn.id = id;
  conn.src = src;
  conn.dst = dst;
  conn.src_iface = src_iface;
  conn.state = ConnState::kRequested;
  conn.requested_at = net_.simulator().now();
  for (const PlannedHop& h : hops) {
    conn.hops.emplace_back(h.node, h.buffer);
    buffer_owner_[BufKey{net_.topology().index(h.node), h.buffer.port,
                         h.buffer.vc}] = id;
  }
  src_ifaces_used_[net_.topology().index(src)][src_iface] = true;

  // The source core configures its own NA locally (first-hop steering
  // bits towards hop 0's buffer).
  const SteerBits first_hop =
      net_.router(src).switching().encode_gs(kLocalPort, hops[0].buffer);
  net_.na(src).configure_gs_source(src_iface, first_hop);

  Record rec;
  rec.conn = std::move(conn);
  auto [it, inserted] = records_.emplace(id, std::move(rec));
  MANGO_ASSERT(inserted, "duplicate connection id");
  return it->second;
}

const Connection& ConnectionManager::open_direct(NodeId src, NodeId dst) {
  LocalIfaceIdx src_iface = 0;
  std::vector<PlannedHop> hops = plan(src, dst, src_iface);
  for (const PlannedHop& h : hops) {
    ConnectionTable& table = net_.router(h.node).table();
    if (h.forward.has_value()) table.set_forward(h.buffer, *h.forward);
    table.set_reverse(h.buffer, h.reverse);
  }
  Record& rec = commit(src, dst, src_iface, std::move(hops));
  // Direct mode traverses Programming in zero time.
  rec.conn.state = ConnState::kReady;
  rec.conn.ready_at = net_.simulator().now();
  return rec.conn;
}

const Connection& ConnectionManager::open_via_packets(NodeId src, NodeId dst,
                                                      ReadyCallback on_ready) {
  LocalIfaceIdx src_iface = 0;
  std::vector<PlannedHop> hops = plan(src, dst, src_iface);
  Record& rec = commit(src, dst, src_iface, hops);
  rec.conn.state = ConnState::kProgramming;
  rec.prog_remaining = static_cast<unsigned>(hops.size());
  rec.on_ready = std::move(on_ready);

  NetworkAdapter& host_na = net_.na(host_);
  const sim::Time now = net_.simulator().now();
  for (const PlannedHop& h : hops) {
    std::vector<std::uint32_t> words;
    if (h.forward.has_value()) {
      words.push_back(encode_prog_forward(h.buffer, *h.forward));
    }
    words.push_back(encode_prog_reverse(h.buffer, h.reverse));
    if (h.node == host_) {
      program_host_locally(std::move(words), rec.conn.id);
      continue;
    }
    // Header via be_header(): distant hops on large fabrics take the
    // table-routed scheme, so programming reaches past the 14-hop
    // source-route ceiling.
    BePacket pkt = make_be_packet(
        net_.be_header(host_, h.node, LocalIface::kProgramming), words,
        rec.conn.id);
    for (Flit& f : pkt.flits) f.injected_at = now;
    host_na.send_be_packet(std::move(pkt));
  }
  return rec.conn;
}

void ConnectionManager::program_host_locally(std::vector<std::uint32_t> words,
                                             std::uint32_t tag) {
  // One NA wire hop plus one BE-router cycle per word (header included),
  // mirroring what the packet path would cost without the transit hops.
  const StageDelays& d = stage_delays(net_.config().router.corner);
  sim::Simulator& sim = net_.simulator();
  const sim::Time done =
      sim.now() + d.na_link_fwd + d.be_route_cycle * (words.size() + 1);
  host_programming_.post_at(sim, done, [this, words = std::move(words), tag] {
    ProgrammingInterface& prog = net_.router(host_).programming();
    Flit header;  // consumed by the interface, carries the tag
    header.tag = tag;
    prog.accept_flit(std::move(header));
    for (std::size_t i = 0; i < words.size(); ++i) {
      Flit f;
      f.data = words[i];
      f.tag = tag;
      f.eop = i + 1 == words.size();
      prog.accept_flit(std::move(f));
    }
  });
}

void ConnectionManager::on_programmed(NodeId /*node*/, std::uint32_t tag,
                                      unsigned /*words*/) {
  auto it = records_.find(tag);
  if (it == records_.end()) return;  // not one of ours
  Record& rec = it->second;
  if (rec.conn.state != ConnState::kProgramming &&
      rec.conn.state != ConnState::kClearing) {
    return;  // stray packet tagged like a live connection: not our op
  }
  MANGO_ASSERT(rec.prog_remaining > 0, "programming completion underflow");
  if (--rec.prog_remaining > 0) return;
  if (rec.conn.state == ConnState::kProgramming) {
    rec.conn.state = ConnState::kReady;
    rec.conn.ready_at = net_.simulator().now();
    if (rec.on_ready) {
      ReadyCallback cb = std::move(rec.on_ready);
      rec.on_ready = nullptr;
      cb(rec.conn);
    }
    return;
  }
  // Clearing completed: release everything and retire the record.
  release_resources(rec.conn);
  ClosedCallback cb = std::move(rec.on_closed);
  records_.erase(it);
  if (cb) cb();
}

void ConnectionManager::release_resources(Connection& conn) {
  if (conn.state == ConnState::kClosed) return;  // idempotent
  for (const auto& [node, buffer] : conn.hops) {
    buffer_owner_.erase(
        BufKey{net_.topology().index(node), buffer.port, buffer.vc});
  }
  net_.na(conn.src).release_gs_source(conn.src_iface);
  src_ifaces_used_[net_.topology().index(conn.src)][conn.src_iface] = false;
  conn.state = ConnState::kClosed;
}

ConnectionManager::Record& ConnectionManager::require_closable(
    ConnectionId id) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    model_fail("closing unknown connection " + std::to_string(id) +
               " (never opened, or already closed — double close)");
  }
  Record& rec = it->second;
  switch (rec.conn.state) {
    case ConnState::kRequested:
    case ConnState::kProgramming:
      model_fail("cannot close connection " + std::to_string(id) +
                 " before it is ready (state " + to_string(rec.conn.state) +
                 ": setup still in flight)");
    case ConnState::kClearing:
      model_fail("double close of connection " + std::to_string(id) +
                 " (teardown already in flight)");
    case ConnState::kClosed:
      model_fail("double close of connection " + std::to_string(id));
    case ConnState::kReady:
    case ConnState::kDraining:
      break;
  }
  return rec;
}

void ConnectionManager::mark_draining(ConnectionId id) {
  auto it = records_.find(id);
  MANGO_ASSERT(it != records_.end(), "draining unknown connection");
  Connection& conn = it->second.conn;
  if (conn.state != ConnState::kReady) {
    model_fail("cannot drain connection " + std::to_string(id) + " in state " +
               to_string(conn.state));
  }
  conn.state = ConnState::kDraining;
}

void ConnectionManager::close_direct(ConnectionId id) {
  Record& rec = require_closable(id);
  for (const auto& [node, buffer] : rec.conn.hops) {
    net_.router(node).table().clear(buffer);
  }
  release_resources(rec.conn);
  records_.erase(id);
}

void ConnectionManager::close_via_packets(ConnectionId id,
                                          ClosedCallback on_closed) {
  Record& rec = require_closable(id);
  rec.conn.state = ConnState::kClearing;
  rec.prog_remaining = static_cast<unsigned>(rec.conn.hops.size());
  rec.on_closed = std::move(on_closed);

  NetworkAdapter& host_na = net_.na(host_);
  const sim::Time now = net_.simulator().now();
  for (const auto& [node, buffer] : rec.conn.hops) {
    if (node == host_) {
      program_host_locally({encode_prog_clear(buffer)}, id);
      continue;
    }
    BePacket pkt = make_be_packet(
        net_.be_header(host_, node, LocalIface::kProgramming),
        {encode_prog_clear(buffer)}, id);
    for (Flit& f : pkt.flits) f.injected_at = now;
    host_na.send_be_packet(std::move(pkt));
  }
}

const Connection* ConnectionManager::get(ConnectionId id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second.conn;
}

void ConnectionManager::for_each_connection(
    const std::function<void(const Connection&)>& fn) const {
  for (const auto& [id, rec] : records_) fn(rec.conn);
}

}  // namespace mango::noc
