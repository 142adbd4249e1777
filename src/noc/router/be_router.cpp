#include "noc/router/be_router.hpp"

#include "noc/common/events.hpp"
#include "noc/common/route.hpp"
#include "noc/network/routing.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

void BeInputBuffer::push(Flit f) {
  MANGO_ASSERT(fifo_.size() < capacity_,
               "BE input buffer overflow at " + name_ +
                   " — upstream violated credit flow control");
  const bool was_empty = fifo_.empty();
  fifo_.push_back(f);
  ++flits_through_;
  if (was_empty && on_head_) on_head_();
}

const Flit& BeInputBuffer::head() const {
  MANGO_ASSERT(!fifo_.empty(), "head() on empty BE buffer " + name_);
  return fifo_.front();
}

Flit BeInputBuffer::pop() {
  MANGO_ASSERT(!fifo_.empty(), "pop() on empty BE buffer " + name_);
  Flit f = fifo_.front();
  fifo_.pop_front();
  if (on_credit_return_) on_credit_return_();
  if (!fifo_.empty() && on_head_) on_head_();
  return f;
}

BeRouter::BeRouter(sim::SimContext& ctx, const RouterConfig& cfg,
                   const StageDelays& delays, std::string name)
    : sim_(ctx.sim()), delays_(delays), name_(std::move(name)),
      be_vcs_(cfg.be_vcs) {
  events::install(sim_);
  MANGO_ASSERT(be_vcs_ >= 1 && be_vcs_ <= kMaxBeVcs,
               "the single header bit supports 1 or 2 BE VCs");
  for (PortIdx p = 0; p < kNumPorts; ++p) {
    for (BeVcIdx vc = 0; vc < be_vcs_; ++vc) {
      inputs_[p].emplace_back(cfg.be_buffer_depth,
                              name_ + ".be" + port_name(p) + ".vc" +
                                  std::to_string(vc));
      inputs_[p].back().set_on_head([this, p, vc] { on_input_head(p, vc); });
    }
  }
}

void BeRouter::set_output(unsigned out, OutputHooks hooks) {
  MANGO_ASSERT(out < kNumOutputs, "BE output index out of range");
  MANGO_ASSERT(static_cast<bool>(hooks.ready) && static_cast<bool>(hooks.push),
               "BE output hooks incomplete");
  outputs_[out] = std::move(hooks);
}

void BeRouter::set_credit_return(PortIdx in,
                                 sim::InlineFunction<void(BeVcIdx)> cb) {
  // The callback is shared by this port's per-VC buffers; move it into a
  // shared slot the per-VC notifies reference.
  credit_cbs_[in] = std::move(cb);
  for (BeVcIdx vc = 0; vc < be_vcs_; ++vc) {
    inputs_.at(in)[vc].set_on_credit_return(
        [this, in, vc] { credit_cbs_[in](vc); });
  }
}

void BeRouter::push_input(PortIdx in, Flit&& f) {
  const BeVcIdx vc = be_vc_of(f);
  MANGO_ASSERT(vc < be_vcs_,
               "flit selects BE VC " + std::to_string(vc) +
                   " but the router has " + std::to_string(be_vcs_));
  inputs_.at(in)[vc].push(f);
}

void BeRouter::set_vc_classes(const std::array<bool, kNumDirections>& dateline) {
  MANGO_ASSERT(be_vcs_ == 2,
               "the dateline VC-class rule needs both BE VCs (be_vcs = 2)");
  vc_classes_enabled_ = true;
  dateline_ = dateline;
}

void BeRouter::enable_table_routing(const RouteTable* table,
                                    std::size_t self_idx) {
  MANGO_ASSERT(table != nullptr, "table routing needs a RouteTable");
  route_table_ = table;
  self_idx_ = static_cast<std::uint32_t>(self_idx);
}

BeVcIdx BeRouter::out_vc_class(PortIdx in, unsigned out, BeVcIdx cur) const {
  if (!vc_classes_enabled_ || !is_network_port(static_cast<PortIdx>(out))) {
    return cur;  // local delivery, or no dateline scheme on this fabric
  }
  return static_cast<BeVcIdx>(be_vc_class_step(
      in, direction_of(static_cast<PortIdx>(out)), cur, dateline_[out]));
}

void BeRouter::notify_output_ready(unsigned out) { try_route(out); }

unsigned BeRouter::decode_target(PortIdx in, const Flit& head) const {
  if (head.thdr) {
    // Table-routed header: the word names the destination's dense node
    // index; the route lives in the shared RouteTable, not the header.
    MANGO_ASSERT(route_table_ != nullptr,
                 "table-routed (THDR) header at " + name_ +
                     " but table routing is not armed on this fabric");
    const std::size_t dst = table_header_dst(head.data);
    if (dst == self_idx_) {
      return table_header_iface(head.data) == LocalIface::kProgramming
                 ? kOutProgramming
                 : kOutLocalNa;
    }
    return route_table_->next_hop(self_idx_, dst, table_header_phase(head.data))
        .port;
  }
  const std::uint8_t code = header_code(head.data);
  if (is_network_port(in) && code == in) {
    // "Choosing a direction back to where it came from, the packet is
    // routed to the local port." The next two bits select the interface.
    const std::uint8_t iface = header_code(rotate_header(head.data));
    return iface == static_cast<std::uint8_t>(LocalIface::kProgramming)
               ? kOutProgramming
               : kOutLocalNa;
  }
  return code;  // a network output port
}

void BeRouter::register_req(PortIdx in, BeVcIdx vc, unsigned out) {
  InputState& st = in_state_[in][vc];
  if (st.reg_out == out) return;
  clear_req(in, vc);
  st.reg_out = static_cast<std::uint8_t>(out);
  out_state_[out].req_mask |=
      static_cast<std::uint16_t>(1u << (in * be_vcs_ + vc));
}

void BeRouter::clear_req(PortIdx in, BeVcIdx vc) {
  InputState& st = in_state_[in][vc];
  if (st.reg_out == kNoReg) return;
  out_state_[st.reg_out].req_mask &=
      static_cast<std::uint16_t>(~(1u << (in * be_vcs_ + vc)));
  st.reg_out = kNoReg;
}

void BeRouter::on_input_head(PortIdx in, BeVcIdx vc) {
  InputState& st = in_state_[in][vc];
  if (!st.target.has_value()) {
    MANGO_ASSERT(st.awaiting_header,
                 "BE input " + port_name(in) + " lost its packet target");
    st.target = decode_target(in, inputs_[in][vc].head());
  }
  register_req(in, vc, *st.target);
  try_route(*st.target);
}

void BeRouter::try_route(unsigned out) {
  MANGO_ASSERT(out < kNumOutputs, "try_route: bad output");
  OutputState& ost = out_state_[out];
  if (ost.busy) return;
  MANGO_ASSERT(static_cast<bool>(outputs_[out].ready),
               "BE output " + std::to_string(out) + " not wired on " + name_);

  // Fair (round-robin) arbitration over (input port, BE VC) pairs. A VC
  // lane locked by a packet admits only that packet's input; the other
  // lane remains free — packets on different BE VCs interleave. The scan
  // walks only the inputs registered in the request mask (head flit
  // present and bound for this output) — same winner as the full slot
  // loop, without touching idle inputs.
  const unsigned slots = kNumPorts * be_vcs_;
  PortIdx in = kNumPorts;
  BeVcIdx vc = 0;
  BeVcIdx ovc = 0;  ///< outgoing VC class of the selected flit
  const unsigned r = ost.rr_next;
  std::uint32_t mask = ost.req_mask;
  mask = ((mask >> r) | (mask << (slots - r))) & ((1u << slots) - 1);
  while (mask != 0) {
    const unsigned i = static_cast<unsigned>(__builtin_ctz(mask));
    mask &= mask - 1;
    const unsigned s = (r + i) % slots;
    const PortIdx cand_in = static_cast<PortIdx>(s / be_vcs_);
    const BeVcIdx cand_vc = static_cast<BeVcIdx>(s % be_vcs_);
    // The downstream lane is the *outgoing* VC class (the dateline rule
    // may promote the flit); locking and readiness follow that lane.
    const BeVcIdx cand_ovc = out_vc_class(cand_in, out, cand_vc);
    const auto& lock = ost.locked[cand_ovc];
    if (lock.has_value() && *lock != std::make_pair(cand_in, cand_vc)) {
      continue;  // lane held by another packet
    }
    if (!outputs_[out].ready(cand_ovc)) continue;  // stage full
    in = cand_in;
    vc = cand_vc;
    ovc = cand_ovc;
    if (!lock.has_value()) {
      ost.locked[cand_ovc] = std::make_pair(cand_in, cand_vc);
      ost.rr_next = (s + 1) % slots;
    }
    break;
  }
  if (in == kNumPorts) return;

  // Claim the routing cycle before popping: pop() can re-enter try_route
  // via the input's head callback.
  ost.busy = true;

  InputState& ist = in_state_[in][vc];
  Flit f = inputs_[in][vc].pop();
  if (!inputs_[in][vc].has_head()) clear_req(in, vc);
  if (ist.awaiting_header) {
    if (f.thdr) {
      // Table scheme: the header word is not consumed — only the
      // routing-phase bit evolves (the table-mode analogue of the
      // per-hop rotation); delivery needs no interface rotation since
      // the iface field sits at fixed bit positions.
      if (out != kOutLocalNa && out != kOutProgramming) {
        const NextHop nh = route_table_->next_hop(
            self_idx_, table_header_dst(f.data), table_header_phase(f.data));
        f.data = with_table_header_phase(f.data, nh.phase);
      }
    } else {
      // Consume this hop's code(s): one rotation when forwarding, two
      // when delivering locally (direction code + interface-select bits).
      f.data = rotate_header(f.data);
      if (out == kOutLocalNa || out == kOutProgramming) {
        f.data = rotate_header(f.data);
      }
    }
    ist.awaiting_header = false;
  }
  // Dateline promotion: the whole packet is rewritten consistently (the
  // class depends only on (in, out, input VC), constant per packet), so
  // the downstream wormhole stays contiguous per lane.
  f.bevc = ovc != 0;
  const bool eop = f.eop;
  ++flits_routed_;
  ++out_flits_[out];
  if (eop) {
    ++packets_routed_;
    ist.awaiting_header = true;
    ist.target.reset();
    clear_req(in, vc);
    ost.locked[ovc].reset();
    // The next packet's header may already sit at the input head; its
    // head callback fired while our stale target was still set, so
    // re-decode explicitly.
    if (inputs_[in][vc].has_head()) on_input_head(in, vc);
  }
  sim::TypedEvent ev{};
  ev.op = events::kOpBeRouteDone;
  ev.a = static_cast<std::uint8_t>(out);
  ev.p0 = this;
  events::store_flit(ev, f);
  sim_.after_typed(delays_.be_route_cycle, ev);
}

void BeRouter::complete_route_cycle(unsigned out, Flit&& f) {
  outputs_[out].push(std::move(f));
  out_state_[out].busy = false;
  try_route(out);
  // The freed input slot may unblock a packet bound elsewhere; input
  // head callbacks handle that on their own.
}

}  // namespace mango::noc
