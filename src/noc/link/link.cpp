#include "noc/link/link.hpp"

#include "noc/common/events.hpp"
#include "noc/network/boundary.hpp"
#include "noc/router/router.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

Link::Link(Endpoint a, Endpoint b, unsigned pipeline_stages,
           LinkSignaling signaling, sim::Time skew_ps)
    : a_(a),
      b_(b),
      stages_(pipeline_stages),
      signaling_(signaling),
      skew_(skew_ps) {
  MANGO_ASSERT(a_.router != nullptr && b_.router != nullptr,
               "link endpoints must be routers");
  // Endpoints in different SimContexts are a shard boundary: allowed,
  // but every send must go through set_boundary() channels (asserted in
  // the send paths).
  sims_[0] = &a_.router->ctx().sim();
  sims_[1] = &b_.router->ctx().sim();
  MANGO_ASSERT(a_.router != b_.router, "self-links are not supported");
  MANGO_ASSERT(stages_ >= 1, "a link has at least one wire segment");
  if (signaling_ == LinkSignaling::kBundledData) {
    // Bundled data assumes delay-matched wires; a link whose skew
    // exceeds the margin cannot close timing (Section 6: the links "are
    // much longer, and thus more sensitive to timing variations").
    MANGO_ASSERT(skew_ <= a_.router->delays().bundling_margin,
                 "bundled-data link skew exceeds the timing margin — use "
                 "1-of-4 delay-insensitive signaling");
  }
  MANGO_ASSERT(a_.router->config().coalesce_handshakes ==
                   b_.router->config().coalesce_handshakes,
               "link endpoints disagree on handshake coalescing");
  coalesce_ = a_.router->config().coalesce_handshakes;
  events::install(*sims_[0]);
  events::install(*sims_[1]);
  a_.router->attach_link(a_.port, this);
  b_.router->attach_link(b_.port, this);
}

const Link::Endpoint& Link::peer_of(const Router* from) const {
  if (from == a_.router) return b_;
  MANGO_ASSERT(from == b_.router, "send from a router not on this link");
  return a_;
}

const Link::Endpoint& Link::self_of(const Router* from) const {
  if (from == a_.router) return a_;
  MANGO_ASSERT(from == b_.router, "send from a router not on this link");
  return b_;
}

unsigned Link::dir_of(const Router* from) const {
  if (from == a_.router) return 0;
  MANGO_ASSERT(from == b_.router, "send from a router not on this link");
  return 1;
}

void Link::push_boundary(unsigned dir, BoundaryKind kind, VcIdx wire,
                         LinkFlit lf, sim::Time latency) {
  sim::Simulator& self = *sims_[dir];
  BoundaryRecord rec;
  rec.arrival = self.now() + latency;
  rec.birth = self.now();
  rec.kind = kind;
  rec.wire = wire;
  rec.lf = lf;
  boundary_[dir]->batch.push(rec);
}

sim::Time Link::forward_latency() const {
  const StageDelays& d = a_.router->delays();
  sim::Time per_stage = d.link_fwd;
  if (signaling_ == LinkSignaling::kOneOfFour) {
    // Wait for the slowest wire, then detect completion.
    per_stage += skew_ + d.di_completion;
  }
  return d.merge_fwd + static_cast<sim::Time>(stages_) * per_stage;
}

unsigned Link::wires_per_direction() const {
  const unsigned vcs = a_.router->config().vcs_per_port;
  // forward data wires + ack + V unlock wires + 1 BE credit wire.
  return link_forward_wires(signaling_) + 1 + vcs + 1;
}

sim::Time Link::reverse_latency() const {
  const StageDelays& d = a_.router->delays();
  return static_cast<sim::Time>(stages_) * d.unlock_back;
}

void Link::send_flit(const Router* from, LinkFlit lf) {
  const unsigned dir = dir_of(from);
  const Endpoint& peer = dir == 0 ? b_ : a_;
  ++flits_carried_[dir];
  if (boundary_[dir] != nullptr) {
    // Cross-shard: hand off for barrier admission; the destination runs
    // the plain uncoalesced receive (no peer state is read here).
    push_boundary(dir, BoundaryKind::kFlit, 0, lf, forward_latency());
    return;
  }
  MANGO_ASSERT(sims_[0] == sims_[1],
               "cross-context link used without boundary channels");
  sim::Simulator& sim_ = *sims_[dir];
  if (!coalesce_) {
    sim::TypedEvent ev{};
    ev.op = events::kOpLinkFlit;
    ev.a = peer.port;
    ev.p0 = peer.router;
    events::store_link_flit(ev, lf);
    events::emit_after(sim_, forward_latency(), ev);
    return;
  }
  // Coalesced GS transfer: the peer's split map is static, so the
  // destination is resolved now and the split/switch/unshare stage delay
  // folds into this single event's timestamp — same arrival instant as
  // the receive-then-traverse event pair it replaces. The folded link
  // arrival is declared with its analytic time so event totals stay
  // bit-identical even when run_until() cuts a chain mid-flight.
  //
  // BE transfers deliberately keep the two-event chain: push_input runs
  // the BE router's arbitration synchronously at dispatch, so its
  // same-timestamp order against other BE events is observable — folding
  // would move its insertion point and flip tie-breaks. GS deliveries
  // only schedule delayed effects (buffer advance, req_fwd), which makes
  // the fold order-exact.
  const sim::Time fwd = forward_latency();
  const SwitchingModule::PlannedHop hop =
      peer.router->switching().plan(peer.port, lf.steer);
  if (hop.to_be) {
    sim::TypedEvent ev{};
    ev.op = events::kOpLinkFlit;
    ev.a = peer.port;
    ev.p0 = peer.router;
    events::store_link_flit(ev, lf);
    events::emit_after(sim_, fwd, ev);
  } else {
    sim_.note_folded_hop_at(sim_.now() + fwd);
    sim::TypedEvent ev{};
    ev.op = events::kOpGsDeliverId;
    ev.a = hop.target.port;
    ev.b = hop.target.vc;
    ev.p0 = peer.router;
    events::store_flit(ev, lf.flit);
    events::emit_after(sim_, fwd + hop.stage_delay, ev);
  }
}

void Link::send_be_flit(const Router* from, LinkFlit lf) {
  const unsigned dir = dir_of(from);
  const Endpoint& peer = dir == 0 ? b_ : a_;
  ++flits_carried_[dir];
  if (boundary_[dir] != nullptr) {
    push_boundary(dir, BoundaryKind::kFlit, 0, lf, forward_latency());
    return;
  }
  sim::TypedEvent ev{};
  ev.op = events::kOpLinkFlit;
  ev.a = peer.port;
  ev.p0 = peer.router;
  events::store_link_flit(ev, lf);
  events::emit_after(*sims_[dir], forward_latency(), ev);
}

void Link::send_reverse(const Router* from, VcIdx wire) {
  const unsigned dir = dir_of(from);
  const Endpoint& peer = dir == 0 ? b_ : a_;
  if (boundary_[dir] != nullptr) {
    push_boundary(dir, BoundaryKind::kReverse, wire, LinkFlit{},
                  reverse_latency());
    return;
  }
  sim::Simulator& sim_ = *sims_[dir];
  if (!coalesce_) {
    sim::TypedEvent ev{};
    ev.op = events::kOpReverse;
    ev.a = peer.port;
    ev.b = wire;
    ev.p0 = peer.router;
    events::emit_after(sim_, reverse_latency(), ev);
    return;
  }
  // Fold the flow box's re-arm delay (0 for credit boxes) into the wire
  // event: one scheduled event from unlock toggle to box-ready.
  const sim::Time rearm = peer.router->reverse_fold_delay();
  const sim::Time rev = reverse_latency();
  if (rearm > 0) sim_.note_folded_hop_at(sim_.now() + rev);
  sim::TypedEvent ev{};
  ev.op = events::kOpReverseDone;
  ev.a = peer.port;
  ev.b = wire;
  ev.p0 = peer.router;
  events::emit_after(sim_, rev + rearm, ev);
}

sim::Time Link::be_credit_latency() const {
  const StageDelays& d = a_.router->delays();
  return static_cast<sim::Time>(stages_) * d.be_credit_back;
}

void Link::send_be_credit(const Router* from, BeVcIdx vc) {
  const unsigned dir = dir_of(from);
  const Endpoint& peer = dir == 0 ? b_ : a_;
  if (boundary_[dir] != nullptr) {
    push_boundary(dir, BoundaryKind::kBeCredit, vc, LinkFlit{},
                  be_credit_latency());
    return;
  }
  sim::TypedEvent ev{};
  ev.op = events::kOpBeCredit;
  ev.a = peer.port;
  ev.b = vc;
  ev.p0 = peer.router;
  events::emit_after(*sims_[dir], be_credit_latency(), ev);
}

}  // namespace mango::noc
