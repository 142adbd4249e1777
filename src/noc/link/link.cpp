#include "noc/link/link.hpp"

#include "noc/common/events.hpp"
#include "noc/router/router.hpp"
#include "sim/assert.hpp"
#include "sim/spsc.hpp"

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
  // but every send must go through set_boundary() outboxes (asserted in
  // transfer()).
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

unsigned Link::dir_of(const Router* from) const {
  if (from == a_.router) return 0;
  MANGO_ASSERT(from == b_.router, "send from a router not on this link");
  return 1;
}

sim::TypedEvent& Link::transfer(unsigned dir, sim::Time delay,
                                events::Op op) {
  sim::Simulator& self = *sims_[dir];
  const Endpoint& peer = dir == 0 ? b_ : a_;
  if (outbox_[dir] != nullptr) {
    // Cross-shard: the record waits in the outbox until the peer's shard
    // admits it, under the sender's scheduling time.
    sim::TypedEvent& ev = outbox_[dir]->push(
        sim::EventKey{self.now() + delay, self.now()}, order_key_ + dir);
    ev.op = op;
    ev.a = peer.port;
    ev.p0 = peer.router;
    return ev;
  }
  MANGO_ASSERT(sims_[0] == sims_[1],
               "cross-context link used without boundary outboxes");
  return events::after(self, delay, op, peer.router, peer.port);
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
  ++flits_carried_[dir];
  events::store_link_flit(transfer(dir, forward_latency(), events::kOpLinkFlit),
                          lf);
}

void Link::send_reverse(const Router* from, VcIdx wire) {
  const unsigned dir = dir_of(from);
  const Endpoint& peer = dir == 0 ? b_ : a_;
  if (!coalesce_ || outbox_[dir] != nullptr) {
    // Cross-shard transfers keep the uncoalesced chain (link.hpp).
    transfer(dir, reverse_latency(), events::kOpReverse).b = wire;
    return;
  }
  // Fold the flow box's re-arm delay (0 for credit boxes) into the wire
  // event: one scheduled event from unlock toggle to box-ready.
  sim::Simulator& sim_ = *sims_[dir];
  const sim::Time rearm = peer.router->reverse_fold_delay();
  const sim::Time rev = reverse_latency();
  if (rearm > 0) sim_.note_folded_hop_at(sim_.now() + rev);
  transfer(dir, rev + rearm, events::kOpReverseDone).b = wire;
}

sim::Time Link::be_credit_latency() const {
  const StageDelays& d = a_.router->delays();
  return static_cast<sim::Time>(stages_) * d.be_credit_back;
}

void Link::send_be_credit(const Router* from, BeVcIdx vc) {
  transfer(dir_of(from), be_credit_latency(), events::kOpBeCredit).b = vc;
}

}  // namespace mango::noc
