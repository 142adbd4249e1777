#include "noc/network/network.hpp"

#include <algorithm>

#include "sim/assert.hpp"

namespace mango::noc {

namespace {

/// Minimum latency of any wire of one link: forward data, reverse
/// unlock, BE credit. The smallest of these over a link set is the
/// conservative synchronization slack that set provides.
sim::Time link_min_latency(const Link& l) {
  return std::min({l.forward_latency(), l.reverse_latency(),
                   l.be_credit_latency()});
}

}  // namespace

Network::Network(sim::SimContext& ctx, const NetworkConfig& cfg)
    : ctx_(ctx), cfg_(cfg) {
  MANGO_ASSERT(cfg_.batched_handoff,
               "the per-record boundary handoff was removed; "
               "batched_handoff must stay true");
  MANGO_ASSERT(cfg_.elide_windows,
               "the unelided window grid was removed; "
               "elide_windows must stay true");
  // The static side — topology, routing, materialized tables, deadlock
  // certificate, VC-class map, partition weights — comes from the
  // FabricPlan: the caller's shared one when provided (a sweep reusing
  // one fabric across scenarios), an inline build otherwise. The plan
  // raises the historical construction errors (VC sufficiency, CDG
  // acyclicity) with byte-identical messages.
  plan_ = cfg_.plan ? cfg_.plan
                    : FabricPlan::build(cfg_.topology, cfg_.router.be_vcs);
  MANGO_ASSERT(plan_->key() == fabric_plan_key(cfg_.topology,
                                               cfg_.router.be_vcs),
               "fabric plan key mismatch: config wants " +
                   fabric_plan_key(cfg_.topology, cfg_.router.be_vcs) +
                   " but the shared plan is " + plan_->key());
  topo_ = &plan_->topology();
  table_ = &plan_->table();
  MANGO_ASSERT(topo_->node_count() >= 2,
               "a network needs at least two nodes (a lone router has no "
               "link to carry traffic)");

  // Shard partition: contiguous node-index ranges weighted by each
  // node's deterministic event load (wired degree + endpoints per
  // router), so stripes balance work, not node count — on a cmesh every
  // router carries `concentration` cores' injection, on an irregular
  // graph hub nodes carry more transit. Every shard above 0 gets its
  // own SimContext with shard 0's seed (a context draws no random
  // numbers, so identical seeding is safe).
  shard_of_ = partition_shards(plan_->partition_weights(),
                               cfg_.shards == 0 ? 1 : cfg_.shards);
  const unsigned n_shards = shard_of_.empty() ? 1 : shard_of_.back() + 1;
  shard_ctxs_.push_back(&ctx_);
  for (unsigned s = 1; s < n_shards; ++s) {
    extra_ctxs_.push_back(std::make_unique<sim::SimContext>(ctx_.seed()));
    shard_ctxs_.push_back(extra_ctxs_.back().get());
  }
  arenas_.reserve(n_shards);
  for (unsigned s = 0; s < n_shards; ++s) {
    arenas_.push_back(std::make_unique<sim::Arena>());
  }

  // Components fill each shard's arena in node-index order (the stripe
  // is contiguous), so a partition's routers, NAs and buffers are dense
  // in its own address range.
  routers_.reserve(topo_->node_count());
  nas_.reserve(topo_->node_count());
  for (std::size_t i = 0; i < topo_->node_count(); ++i) {
    const NodeId n = topo_->node_at(i);
    sim::Arena& arena = *arenas_[shard_of_[i]];
    routers_.push_back(arena.create<Router>(*shard_ctxs_[shard_of_[i]],
                                            cfg_.router, n, "R" + to_string(n),
                                            arena));
    nas_.push_back(
        arena.create<NetworkAdapter>(*routers_.back(), "NA" + to_string(n)));
  }

  // Links: one per undirected edge of the adjacency graph. Each edge is
  // instantiated from its lexicographically smaller (node index, port)
  // endpoint so parallel links (e.g. both directions of a 2-wide torus
  // ring) are each created exactly once. Port order East, North, South,
  // West keeps mesh link creation in the historical order.
  for (std::size_t i = 0; i < topo_->node_count(); ++i) {
    const NodeId n = topo_->node_at(i);
    for (const Direction d : {Direction::kEast, Direction::kNorth,
                              Direction::kSouth, Direction::kWest}) {
      const auto peer = topo_->link_peer(n, port_of(d));
      if (!peer.has_value()) continue;
      const std::size_t peer_idx = topo_->index(peer->node);
      if (std::make_pair(i, port_of(d)) >
          std::make_pair(peer_idx, peer->port)) {
        continue;  // created from the other endpoint
      }
      // The link (and the stat slots inside it) lives in the arena of
      // its lower endpoint's shard.
      links_.push_back(arenas_[shard_of_[i]]->create<Link>(
          Link::Endpoint{&router(n), port_of(d)},
          Link::Endpoint{&router(peer->node), peer->port},
          cfg_.link_pipeline_stages, cfg_.link_signaling,
          cfg_.link_skew_ps));
    }
  }
  ctx_.stats().counter("network.routers") += topo_->node_count();
  ctx_.stats().counter("network.links") += links_.size();

  // Control-plane timing: the deferral (and the engine's window width)
  // is the minimum latency of any wire of ANY link — not just the
  // boundary set — so it does not depend on the partition and deferred
  // control actions land at the same instant for every --shards value.
  min_link_latency_ = sim::kTimeNever;
  for (const auto& l : links_) {
    min_link_latency_ = std::min(min_link_latency_, link_min_latency(*l));
  }
  if (links_.empty()) min_link_latency_ = 0;
  control_.set_deferral(min_link_latency_);
  if (n_shards == 1) {
    control_.bind_kernel(ctx_.sim());
  } else {
    std::vector<sim::Simulator*> sims;
    sims.reserve(shard_ctxs_.size());
    for (sim::SimContext* c : shard_ctxs_) sims.push_back(&c->sim());
    control_.bind_engine(sims);
    // The window width doubles as the control deferral bound: a post
    // made mid-window at u lands at u + deferral >= window end, so the
    // engine always sees it in time to park the shards on its key.
    sim::ShardEngine::Options opt;
    opt.spin_us = cfg_.spin_us;
    opt.spin_even_oversubscribed = cfg_.force_spin;
    engine_ = std::make_unique<sim::ShardEngine>(
        std::move(sims), min_link_latency_, control_, opt);
    // Each direction of a cross-shard link pushes into its shard pair's
    // outbox under an order key derived from the link's position in
    // links_ — a pure function of the topology, which is what makes the
    // admission order partition-independent.
    for (std::size_t idx = 0; idx < links_.size(); ++idx) {
      Link& l = *links_[idx];
      const Router* ra = l.endpoint_a().router;
      const unsigned a = shard_of_[topo_->index(ra->node())];
      const unsigned b =
          shard_of_[topo_->index(l.peer_endpoint(ra).router->node())];
      if (a == b) continue;
      l.set_boundary(static_cast<std::uint32_t>(idx * 2),
                     &engine_->outbox(a, b), &engine_->outbox(b, a));
    }
  }

  // BE downstream configuration: credits = the peer's BE input depth and
  // the split code that reaches the peer's BE router via the port the
  // link arrives on over there.
  for (std::size_t i = 0; i < topo_->node_count(); ++i) {
    const NodeId n = topo_->node_at(i);
    for (PortIdx p = 0; p < kNumDirections; ++p) {
      const auto peer = topo_->link_peer(n, p);
      if (!peer.has_value()) continue;
      Router& peer_router = router(peer->node);
      router(n).configure_be_downstream(
          p, peer_router.config().be_buffer_depth,
          peer_router.switching().be_code(peer->port));
    }
  }

  // Wrap fabrics: arm the dateline VC-class rule on every BE router.
  const BeVcClassMap& vc_map = plan_->vc_class_map();
  if (vc_map.enabled) {
    for (std::size_t i = 0; i < topo_->node_count(); ++i) {
      routers_[i]->be_router().set_vc_classes(vc_map.dateline[i]);
    }
  }

  // Arm the table-routed header scheme on every BE router: routes over
  // the paper's 15-code budget ship THDR headers whose next-hop lookups
  // resolve through the shared RouteTable (small fabrics never emit
  // them, so their wire traffic is unchanged).
  for (std::size_t i = 0; i < topo_->node_count(); ++i) {
    routers_[i]->be_router().enable_table_routing(table_, i);
  }
}

std::uint64_t Network::run_until(sim::Time t_end) {
  if (engine_ == nullptr) return ctx_.run_until(t_end);
  return engine_->run_until(t_end);
}

std::uint64_t Network::events_dispatched() const {
  std::uint64_t n = 0;
  for (const sim::SimContext* c : shard_ctxs_) n += c->sim().events_dispatched();
  return n + control_.executed();
}

BeRoute Network::be_route(NodeId src, NodeId dst, LocalIface iface) const {
  MANGO_ASSERT(topo_->contains(src) && topo_->contains(dst),
               "route endpoints outside the topology");
  BeRoute r;
  r.iface = iface;
  const std::size_t si = topo_->index(src);
  const std::size_t di = topo_->index(dst);
  table_->append_moves(si, di, r.moves);
  r.delivery = direction_of(table_->delivery_port(si, di));
  return r;
}

BeHeader Network::be_header(NodeId src, NodeId dst, LocalIface iface) const {
  return table_->be_header(topo_->index(src), topo_->index(dst), iface);
}

}  // namespace mango::noc
