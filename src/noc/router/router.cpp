#include "noc/router/router.hpp"

#include "noc/common/events.hpp"
#include "noc/link/link.hpp"
#include "noc/na/network_adapter.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

void BeOutputStage::wire(Router* owner, PortIdx port, LinkArbiter* arb,
                         unsigned be_vcs) {
  owner_ = owner;
  port_ = port;
  arb_ = arb;
  lanes_.resize(be_vcs);
}

void BeOutputStage::set_downstream(unsigned credits_per_vc,
                                   std::uint8_t peer_split_code) {
  for (Lane& lane : lanes_) lane.credits = credits_per_vc;
  peer_split_code_ = peer_split_code;
}

void BeOutputStage::push(Flit&& f) {
  Lane& lane = lanes_.at(be_vc_of(f));
  MANGO_ASSERT(lane.fifo.size() < kDepth, "BE output stage overflow");
  lane.fifo.push_back(std::move(f));
  update_request();
}

void BeOutputStage::on_grant() {
  // Round-robin over lanes that can send (flit present + credit).
  const unsigned n = static_cast<unsigned>(lanes_.size());
  for (unsigned i = 0; i < n; ++i) {
    Lane& lane = lanes_[(rr_ + i) % n];
    if (lane.fifo.empty() || lane.credits == 0) continue;
    rr_ = (rr_ + i + 1) % n;
    Flit f = lane.fifo.front();
    lane.fifo.pop_front();
    --lane.credits;
    ++owner_->link_flits_sent_;
    Link* link = owner_->link(port_);
    MANGO_ASSERT(link != nullptr, "BE flit granted onto an unattached port");
    link->send_flit(owner_, LinkFlit{SteerBits{peer_split_code_, 0}, f});
    update_request();
    // A freed slot may unblock the BE router.
    owner_->be_router().notify_output_ready(static_cast<unsigned>(port_));
    return;
  }
  model_fail("BE grant without an eligible lane");
}

void BeOutputStage::on_credit_return(BeVcIdx vc) {
  ++lanes_.at(vc).credits;
  update_request();
}

void BeOutputStage::update_request() {
  bool any = false;
  for (const Lane& lane : lanes_) {
    if (!lane.fifo.empty() && lane.credits > 0) {
      any = true;
      break;
    }
  }
  arb_->set_request_be(any);
}

Router::Router(sim::SimContext& ctx, const RouterConfig& cfg, NodeId node,
               std::string name, sim::Arena& arena)
    : ctx_(ctx),
      sim_(ctx.sim()),
      cfg_(cfg),
      delays_(stage_delays(cfg.corner)),
      node_(node),
      name_(std::move(name)),
      table_(cfg),
      switching_(sim_, cfg, delays_),
      prog_(table_),
      be_(ctx, cfg, delays_, name_) {
  events::install(sim_);
  const unsigned v = cfg_.vcs_per_port;
  scheme_ = cfg_.arbiter == ArbiterKind::kUnregulated
                ? VcScheme::kCreditBased
                : VcScheme::kShareBased;
  const VcScheme scheme = scheme_;

  // Network VC buffers and their flow boxes.
  bufs_.reserve(kNumDirections * v + cfg_.local_gs_ifaces);
  flow_.reserve(kNumDirections * v);
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    arbiters_[p] = arena.create<LinkArbiter>(
        sim_, cfg_, delays_, name_ + ".arb" + port_name(p));
    for (VcIdx vc = 0; vc < v; ++vc) {
      const VcBufferId id{p, vc};
      bufs_.push_back(arena.create<VcBuffer>(sim_, delays_, scheme, id));
      flow_.push_back(
          arena.create<FlowBox>(sim_, scheme, delays_.sharebox_unlock));
      VcBuffer& buf = *bufs_.back();
      FlowBox& fb = *flow_.back();
      buf.set_on_head([this, p, vc] { update_gs_request(p, vc); });
      buf.set_on_reverse([this, id] { signal_reverse(id); });
      fb.set_on_ready([this, p, vc] { update_gs_request(p, vc); });
    }
    arbiters_[p]->set_grant_gs([this, p](VcIdx vc) { on_gs_grant(p, vc); });
    arbiters_[p]->set_grant_be([this, p] { be_out_[p].on_grant(); });
    be_out_[p].wire(this, p, arbiters_[p], cfg_.be_vcs);
  }

  // Local output interfaces (delivery to the NA; no link arbiter).
  for (LocalIfaceIdx i = 0; i < cfg_.local_gs_ifaces; ++i) {
    const VcBufferId id{kLocalPort, i};
    bufs_.push_back(arena.create<VcBuffer>(sim_, delays_, scheme, id));
    VcBuffer& buf = *bufs_.back();
    buf.set_on_head([this, i] {
      if (na_ != nullptr) na_->on_local_head(i);
    });
    buf.set_on_reverse([this, id] { signal_reverse(id); });
  }

  // Switching module sinks.
  switching_.set_gs_sink([this](VcBufferId id, Flit&& f) {
    vc_buffer(id).accept_unshare(std::move(f));
  });
  switching_.set_be_sink([this](PortIdx in, Flit&& f) {
    be_.push_input(in, std::move(f));
  });

  // BE router outputs: 4 network stages + local NA + programming.
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    be_.set_output(p, BeRouter::OutputHooks{
                          [this, p](BeVcIdx vc) { return be_out_[p].ready(vc); },
                          [this, p](Flit&& f) { be_out_[p].push(std::move(f)); },
                      });
  }
  be_.set_output(BeRouter::kOutLocalNa,
                 BeRouter::OutputHooks{
                     [](BeVcIdx) { return true; },  // NA rx is unbounded
                     [this](Flit&& f) {
                       MANGO_ASSERT(na_ != nullptr,
                                    "no NA BE delivery sink on " + name_);
                       na_->deliver_be_flit(std::move(f));
                     },
                 });
  be_.set_output(BeRouter::kOutProgramming,
                 BeRouter::OutputHooks{
                     [](BeVcIdx) { return true; },
                     [this](Flit&& f) { prog_.accept_flit(std::move(f)); },
                 });

  // BE input credit returns.
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    be_.set_credit_return(p, [this, p](BeVcIdx vc) {
      Link* l = links_.at(p);
      MANGO_ASSERT(l != nullptr,
                   "BE credit through unattached port " + port_name(p));
      l->send_be_credit(this, vc);
    });
  }
  be_.set_credit_return(kLocalPort, [this](BeVcIdx vc) {
    if (na_ != nullptr) {
      events::after(sim_, delays_.be_credit_back, events::kOpLocalBeCredit,
                    na_, vc);
    }
  });
}

std::size_t Router::buf_index(VcBufferId id) const {
  if (id.port == kLocalPort) {
    MANGO_ASSERT(id.vc < cfg_.local_gs_ifaces,
                 "local iface out of range: " + to_string(id));
    return static_cast<std::size_t>(kNumDirections) * cfg_.vcs_per_port + id.vc;
  }
  MANGO_ASSERT(id.port < kNumDirections && id.vc < cfg_.vcs_per_port,
               "VC buffer out of range: " + to_string(id));
  return static_cast<std::size_t>(id.port) * cfg_.vcs_per_port + id.vc;
}

FlowBox& Router::flow_control(PortIdx port, VcIdx vc) {
  MANGO_ASSERT(port < kNumDirections, "flow boxes exist on network ports only");
  return *flow_.at(buf_index({port, vc}));
}

void Router::attach_na(NetworkAdapter& na) {
  MANGO_ASSERT(na_ == nullptr, "a second network adapter (" + na.name() +
                                   ") on the local port of " + name_);
  na_ = &na;
}

void Router::attach_link(PortIdx port, Link* link) {
  MANGO_ASSERT(is_network_port(port), "links attach to network ports");
  MANGO_ASSERT(links_[port] == nullptr,
               "port " + port_name(port) + " already linked on " + name_);
  links_[port] = link;
}

void Router::configure_be_downstream(PortIdx port, unsigned credits_per_vc,
                                     std::uint8_t peer_split_code) {
  be_out_.at(port).set_downstream(credits_per_vc, peer_split_code);
}

void Router::receive_link_flit(PortIdx in_port, LinkFlit lf) {
  switching_.route(in_port, lf);
}

void Router::receive_reverse(PortIdx out_port, VcIdx vc) {
  flow_control(out_port, vc).on_reverse_signal();
}

void Router::receive_be_credit(PortIdx out_port, BeVcIdx vc) {
  be_out_[out_port].on_credit_return(vc);
}

void Router::inject_local_gs(LocalIfaceIdx iface, LinkFlit lf) {
  MANGO_ASSERT(iface < cfg_.local_gs_ifaces, "bad local GS interface");
  switching_.route(kLocalPort, lf);
}

bool Router::local_out_has_head(LocalIfaceIdx iface) const {
  return bufs_.at(kNumDirections * cfg_.vcs_per_port + iface)->has_head();
}

Flit Router::local_out_pop(LocalIfaceIdx iface) {
  return vc_buffer({kLocalPort, iface}).pop();
}

void Router::inject_local_be(Flit f) {
  be_.push_input(kLocalPort, std::move(f));
}

bool Router::gs_eligible(PortIdx port, VcIdx vc) const {
  const std::size_t i = static_cast<std::size_t>(port) * cfg_.vcs_per_port + vc;
  return bufs_[i]->has_head() && flow_[i]->can_admit();
}

void Router::update_gs_request(PortIdx port, VcIdx vc) {
  if (!gs_eligible(port, vc)) {
    arbiters_[port]->set_request_gs(vc, false);
    return;
  }
  // The request line rises after the buffer-head -> arbiter wire delay;
  // re-check the condition at fire time (events may have intervened).
  events::after(sim_, delays_.req_fwd, events::kOpGsReqRecheck, this, port,
                vc);
}

void Router::recheck_gs_request(PortIdx port, VcIdx vc) {
  arbiters_[port]->set_request_gs(vc, gs_eligible(port, vc));
}

void Router::signal_reverse(VcBufferId buf) {
  const ReverseEntry entry = table_.reverse(buf);  // throws if unprogrammed
  ++vc_control_signals_;
  if (entry.in_port != kLocalPort) {
    // The attached link charges the unlock-wire delay.
    Link* l = links_.at(entry.in_port);
    MANGO_ASSERT(l != nullptr, "reverse signal through unattached port " +
                                   port_name(entry.in_port) + " on " + name_);
    l->send_reverse(this, entry.wire);
    return;
  }
  MANGO_ASSERT(na_ != nullptr, "no NA reverse handler on " + name_);
  na_->send_local_reverse(static_cast<LocalIfaceIdx>(entry.wire));
}

const Router::GsSendPlan& Router::send_plan(PortIdx port, VcIdx vc) {
  if (send_plans_.empty()) {
    send_plans_.resize(static_cast<std::size_t>(kNumDirections) *
                       cfg_.vcs_per_port);
  }
  GsSendPlan& plan =
      send_plans_[static_cast<std::size_t>(port) * cfg_.vcs_per_port + vc];
  if (plan.valid && plan.generation == table_.generation()) return plan;
  const SteerBits steer = table_.forward({port, vc});  // throws if unset
  Link* l = links_[port];
  MANGO_ASSERT(l != nullptr, "GS flit granted onto unattached port " +
                                 port_name(port) + " on " + name_);
  const Link::Endpoint& peer = l->peer_endpoint(this);
  const SwitchingModule::PlannedHop hop =
      peer.router->switching().plan(peer.port, steer);
  MANGO_ASSERT(!hop.to_be, "GS connection steered at the BE router");
  plan.link = l;
  plan.peer = peer.router;
  plan.target = &peer.router->vc_buffer(hop.target);
  plan.flit_counter = l->flit_counter(this);
  plan.fwd = l->forward_latency();
  plan.total_delay = plan.fwd + hop.stage_delay;
  plan.generation = table_.generation();
  plan.valid = true;
  return plan;
}

void Router::on_gs_grant(PortIdx port, VcIdx vc) {
  FlowBox& fb = flow_control(port, vc);
  MANGO_ASSERT(fb.can_admit(), "grant to a VC whose flow box cannot admit");
  fb.on_admit();
  Flit f = vc_buffer({port, vc}).pop();
  Link* l = links_[port];
  // A cross-shard port never folds: the coalesced plan would resolve the
  // peer's switching state from another shard mid-window, so it takes
  // the uncoalesced send and the link hands the flit to the barrier.
  if (cfg_.coalesce_handshakes && !(l != nullptr && l->is_boundary(this))) {
    const GsSendPlan& plan = send_plan(port, vc);
    ++*plan.flit_counter;
    ++link_flits_sent_;
    sim_.note_folded_hop_at(sim_.now() + plan.fwd);
    sim::TypedEvent& ev = events::after(sim_, plan.total_delay,
                                        events::kOpGsDeliverPtr, plan.peer);
    ev.p1 = plan.target;
    events::store_flit(ev, f);
    update_gs_request(port, vc);
    return;
  }
  const SteerBits steer = table_.forward({port, vc});  // throws if unset
  MANGO_ASSERT(l != nullptr, "GS flit granted onto unattached port " +
                                 port_name(port) + " on " + name_);
  ++link_flits_sent_;
  l->send_flit(this, LinkFlit{steer, f});
  update_gs_request(port, vc);
}

RouterActivity Router::activity() const {
  RouterActivity a;
  a.switch_flits = switching_.flits_routed();
  a.vc_control_signals = vc_control_signals_;
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    a.arb_grants += arbiters_[p]->total_grants();
  }
  a.be_router_flits = be_.flits_routed();
  a.link_flits_sent = link_flits_sent_;
  return a;
}

}  // namespace mango::noc
