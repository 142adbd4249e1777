#include "noc/na/network_adapter.hpp"

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

NetworkAdapter::NetworkAdapter(Router& router, std::string name)
    : sim_(router.ctx().sim()),
      router_(router),
      name_(std::move(name)),
      delays_(router.delays()),
      flit_pool_(router.ctx().pools().vectors<Flit>()),
      coalesce_(router.config().coalesce_handshakes),
      num_ifaces_(router.config().local_gs_ifaces),
      be_lanes_(router.config().be_vcs) {
  events::install(sim_);
  MANGO_ASSERT(num_ifaces_ <= gs_src_.size(), "too many local GS interfaces");
  for (BeLane& lane : be_lanes_) {
    lane.credits = router.config().be_buffer_depth;
  }
  router_.set_local_reverse_handler(
      [this](LocalIfaceIdx i) { on_local_reverse(i); });
  router_.set_local_reverse_complete_handler(
      [this](LocalIfaceIdx i) { complete_local_reverse(i); });
  router_.set_local_out_notify([this](LocalIfaceIdx i) { on_local_head(i); });
  router_.set_local_be_credit_handler([this](BeVcIdx vc) {
    ++be_lanes_.at(vc).credits;
    drain_be();
  });
  wire_be_delivery();
}

void NetworkAdapter::wire_be_delivery() {
  // Passive (timed) BE handlers let the router hand flits over
  // synchronously with the delivery instant attached; reactive handlers
  // keep the evented hand-over. Reassembly itself is passive either way.
  router_.set_local_be_delivery(
      [this](Flit&& f) { accept_be_flit(std::move(f), sim_.now()); });
  if (be_timed_handler_) {
    router_.set_local_be_delivery_timed([this](Flit&& f, sim::Time at) {
      accept_be_flit(std::move(f), at);
    });
  } else {
    router_.set_local_be_delivery_timed(nullptr);
  }
}

void NetworkAdapter::accept_be_flit(Flit&& f, sim::Time at) {
  // Packets on different BE VCs may interleave: reassemble per VC.
  BeLane& lane = be_lanes_.at(be_vc_of(f));
  lane.assembling.push_back(f);
  if (!f.eop) return;
  ++be_packets_received_;
  BePacket pkt;
  pkt.flits.swap(lane.assembling);
  // Fresh reassembly storage from the pool — the swapped-out body left
  // with the packet (and comes back via release once it is consumed).
  lane.assembling = flit_pool_.acquire();
  if (be_timed_handler_) {
    be_timed_handler_(std::move(pkt), at);
  } else if (be_handler_) {
    be_handler_(std::move(pkt));
  }
}

void NetworkAdapter::configure_gs_source(LocalIfaceIdx iface,
                                         SteerBits first_hop) {
  MANGO_ASSERT(iface < num_ifaces_, "GS source iface out of range");
  GsSource& src = gs_src_[iface];
  MANGO_ASSERT(!src.configured,
               "GS source iface already bound on " + name_);
  src.configured = true;
  src.steer = first_hop;
  if (coalesce_) {
    // Resolve the (static) switching decision once: injected flits go
    // straight to their VC buffer in one wire + stage event.
    const SwitchingModule::PlannedHop hop =
        router_.switching().plan(kLocalPort, first_hop);
    MANGO_ASSERT(!hop.to_be, "GS source steered at the BE router");
    src.inject_target = &router_.vc_buffer(hop.target);
    src.inject_delay = delays_.na_link_fwd + hop.stage_delay;
  }
  const VcScheme scheme =
      router_.config().arbiter == ArbiterKind::kUnregulated
          ? VcScheme::kCreditBased
          : VcScheme::kShareBased;
  src.flow = make_flow_control(sim_, scheme, delays_.sharebox_unlock,
                               /*credits=*/2);
  src.flow->set_on_ready([this, iface] { drain_gs(iface); });
}

void NetworkAdapter::release_gs_source(LocalIfaceIdx iface) {
  MANGO_ASSERT(iface < num_ifaces_, "GS source iface out of range");
  GsSource& src = gs_src_[iface];
  MANGO_ASSERT(src.queue.empty(), "releasing a GS source with queued flits");
  src.configured = false;
  src.flow.reset();
  src.supplier = nullptr;
}

bool NetworkAdapter::gs_source_configured(LocalIfaceIdx iface) const {
  return gs_src_.at(iface).configured;
}

void NetworkAdapter::gs_send(LocalIfaceIdx iface, Flit f) {
  GsSource& src = gs_src_.at(iface);
  MANGO_ASSERT(src.configured, "gs_send on unconfigured iface of " + name_);
  src.queue.push_back(f);
  drain_gs(iface);
}

void NetworkAdapter::set_gs_supplier(LocalIfaceIdx iface, GsSupplier s) {
  GsSource& src = gs_src_.at(iface);
  MANGO_ASSERT(src.configured, "supplier on unconfigured iface of " + name_);
  src.supplier = std::move(s);
  drain_gs(iface);
}

std::size_t NetworkAdapter::gs_queue_depth(LocalIfaceIdx iface) const {
  return gs_src_.at(iface).queue.size();
}

std::uint64_t NetworkAdapter::gs_flits_sent(LocalIfaceIdx iface) const {
  return gs_src_.at(iface).sent;
}

void NetworkAdapter::drain_gs(LocalIfaceIdx iface) {
  GsSource& src = gs_src_[iface];
  if (!src.configured || src.stage_busy || !src.flow->can_admit()) return;

  Flit f;
  if (!src.queue.empty()) {
    f = src.queue.front();
    src.queue.pop_front();
  } else if (src.supplier) {
    std::optional<Flit> pulled = src.supplier();
    if (!pulled.has_value()) return;
    f = *pulled;
  } else {
    return;
  }

  src.flow->on_admit();
  src.stage_busy = true;
  ++src.sent;
  if (coalesce_) {
    sim_.note_folded_hop_at(sim_.now() + delays_.na_link_fwd);
    sim::TypedEvent ev{};
    ev.op = events::kOpGsDeliverPtr;
    ev.p0 = &router_;
    ev.p1 = src.inject_target;
    events::store_flit(ev, f);
    sim_.after_typed(src.inject_delay, ev);
  } else {
    sim::TypedEvent ev{};
    ev.op = events::kOpNaGsInject;
    ev.a = iface;
    ev.p0 = this;
    events::store_link_flit(ev, LinkFlit{src.steer, f});
    sim_.after_typed(delays_.na_link_fwd, ev);
  }
  // The local interface handshake stage recovers after one cycle.
  sim::TypedEvent ev{};
  ev.op = events::kOpNaGsRecover;
  ev.a = iface;
  ev.p0 = this;
  sim_.after_typed(delays_.arb_cycle, ev);
}

void NetworkAdapter::inject_gs_now(LocalIfaceIdx iface, const LinkFlit& lf) {
  router_.inject_local_gs(iface, lf);
}

void NetworkAdapter::recover_gs_stage(LocalIfaceIdx iface) {
  gs_src_[iface].stage_busy = false;
  drain_gs(iface);
}

void NetworkAdapter::on_local_reverse(LocalIfaceIdx iface) {
  GsSource& src = gs_src_.at(iface);
  MANGO_ASSERT(src.configured && src.flow != nullptr,
               "reverse signal for unconfigured GS source on " + name_);
  src.flow->on_reverse_signal();
}

void NetworkAdapter::complete_local_reverse(LocalIfaceIdx iface) {
  GsSource& src = gs_src_.at(iface);
  MANGO_ASSERT(src.configured && src.flow != nullptr,
               "reverse signal for unconfigured GS source on " + name_);
  src.flow->complete_reverse();
}

void NetworkAdapter::on_local_head(LocalIfaceIdx iface) {
  if (coalesce_ && sink_service_ == 0 && gs_timed_handler_ &&
      router_.vc_scheme() == VcScheme::kShareBased) {
    // Zero-service sink feeding a *passive* handler on a share-based
    // buffer: the service event would fire at this same instant and the
    // pop has no same-time side effects (share-based buffers signal on
    // the advance, not the pop), so consume the head synchronously and
    // hand the flit over stamped with the instant the evented handler
    // would run. Both skipped events are declared to the fold ledger
    // for event-count parity. Evented (reactive) handlers keep the full
    // chain below — the pop's insertion point is part of their exact
    // firing-order contract.
    Flit f = router_.local_out_pop(iface);
    sim_.note_folded_hop_at(sim_.now());
    const sim::Time at = sim_.now() + delays_.na_link_fwd;
    sim_.note_folded_hop_at(at);
    gs_timed_handler_(iface, std::move(f), at);
    return;
  }
  if (sink_busy_.at(iface)) return;
  sink_busy_[iface] = true;
  sim_.after_typed(sink_service_,
                   events::make(events::kOpNaSinkService, this, iface));
}

void NetworkAdapter::serve_sink(LocalIfaceIdx iface) {
  sink_busy_[iface] = false;
  if (!router_.local_out_has_head(iface)) return;
  Flit f = router_.local_out_pop(iface);
  sim::TypedEvent ev{};
  ev.op = events::kOpNaGsHandoff;
  ev.a = iface;
  ev.p0 = this;
  events::store_flit(ev, f);
  sim_.after_typed(delays_.na_link_fwd, ev);
  // The buffer refill (unsharebox advance) re-notifies us.
}

void NetworkAdapter::handoff_gs(LocalIfaceIdx iface, Flit&& f) {
  if (gs_timed_handler_) {
    gs_timed_handler_(iface, std::move(f), sim_.now());
  } else if (gs_handler_) {
    gs_handler_(iface, std::move(f));
  }
}

void NetworkAdapter::send_be_packet(BePacket pkt, BeVcIdx vc) {
  MANGO_ASSERT(!pkt.empty(), "sending an empty BE packet");
  MANGO_ASSERT(pkt.flits.back().eop, "BE packet lacks the EOP control bit");
  MANGO_ASSERT(vc < be_lanes_.size(),
               "BE VC " + std::to_string(vc) + " not configured on " + name_);
  BeLane& lane = be_lanes_[vc];
  for (Flit& f : pkt.flits) {
    f.bevc = (vc != 0);
    lane.queue.push_back(f);
  }
  ++be_packets_sent_;
  // The packet body has been copied into the lane ring; retire the
  // storage so the next injection reuses it.
  flit_pool_.release(std::move(pkt.flits));
  drain_be();
}

std::size_t NetworkAdapter::be_queue_flits() const {
  std::size_t n = 0;
  for (const BeLane& lane : be_lanes_) n += lane.queue.size();
  return n;
}

void NetworkAdapter::drain_be() {
  if (be_stage_busy_) return;
  // Round-robin over BE VC lanes that can send (flit + credit).
  const unsigned n = static_cast<unsigned>(be_lanes_.size());
  for (unsigned i = 0; i < n; ++i) {
    BeLane& lane = be_lanes_[(be_rr_ + i) % n];
    if (lane.queue.empty() || lane.credits == 0) continue;
    be_rr_ = (be_rr_ + i + 1) % n;
    Flit f = lane.queue.front();
    lane.queue.pop_front();
    --lane.credits;
    be_stage_busy_ = true;
    sim::TypedEvent ev{};
    ev.op = events::kOpNaBeInject;
    ev.p0 = this;
    events::store_flit(ev, f);
    sim_.after_typed(delays_.na_link_fwd, ev);
    sim::TypedEvent rec{};
    rec.op = events::kOpNaBeRecover;
    rec.p0 = this;
    sim_.after_typed(delays_.arb_cycle, rec);
    return;
  }
}

void NetworkAdapter::inject_be_now(Flit f) { router_.inject_local_be(f); }

void NetworkAdapter::recover_be_stage() {
  be_stage_busy_ = false;
  drain_be();
}

}  // namespace mango::noc
