#include "noc/common/events.hpp"

#include "noc/na/network_adapter.hpp"
#include "noc/network/connection_broker.hpp"
#include "noc/router/arbiter.hpp"
#include "noc/router/be_router.hpp"
#include "noc/router/router.hpp"
#include "noc/router/sharebox.hpp"
#include "noc/router/switching.hpp"
#include "noc/router/vc_buffer.hpp"
#include "noc/router/vc_control.hpp"
#include "noc/traffic/generator.hpp"
#include "sim/assert.hpp"
#include "sim/parallel.hpp"

namespace mango::noc::events {

void dispatch_event(sim::TypedEvent& ev) {
  switch (ev.op) {
    case kOpLinkFlit:
      static_cast<Router*>(ev.p0)->receive_link_flit(
          static_cast<PortIdx>(ev.a), load_link_flit(ev));
      return;
    case kOpGsDeliverPtr: {
      Flit f = load_flit(ev);
      static_cast<Router*>(ev.p0)->deliver_gs_coalesced(
          static_cast<VcBuffer*>(ev.p1), std::move(f));
      return;
    }
    case kOpReverse:
      static_cast<Router*>(ev.p0)->receive_reverse(static_cast<PortIdx>(ev.a),
                                                   static_cast<VcIdx>(ev.b));
      return;
    case kOpReverseDone:
      static_cast<Router*>(ev.p0)->complete_reverse_coalesced(
          static_cast<PortIdx>(ev.a), static_cast<VcIdx>(ev.b));
      return;
    case kOpBeCredit:
      static_cast<Router*>(ev.p0)->receive_be_credit(
          static_cast<PortIdx>(ev.a), static_cast<BeVcIdx>(ev.b));
      return;
    case kOpBeRouteDone: {
      Flit f = load_flit(ev);
      static_cast<BeRouter*>(ev.p0)->complete_route_cycle(ev.a, std::move(f));
      return;
    }
    case kOpArbRearm:
      static_cast<LinkArbiter*>(ev.p0)->complete_cycle();
      return;
    case kOpVcAdvance:
      static_cast<VcBuffer*>(ev.p0)->complete_advance();
      return;
    case kOpSwitchGs: {
      Flit f = load_flit(ev);
      static_cast<SwitchingModule*>(ev.p0)->deliver_gs(
          VcBufferId{static_cast<PortIdx>(ev.a), static_cast<VcIdx>(ev.b)},
          std::move(f));
      return;
    }
    case kOpSwitchBe: {
      Flit f = load_flit(ev);
      static_cast<SwitchingModule*>(ev.p0)->deliver_be(
          static_cast<PortIdx>(ev.a), std::move(f));
      return;
    }
    case kOpGsReqRecheck:
      static_cast<Router*>(ev.p0)->recheck_gs_request(
          static_cast<PortIdx>(ev.a), static_cast<VcIdx>(ev.b));
      return;
    case kOpLocalBeCredit:
      static_cast<Router*>(ev.p0)->deliver_local_be_credit(
          static_cast<BeVcIdx>(ev.a));
      return;
    case kOpNaGsInject:
      static_cast<NetworkAdapter*>(ev.p0)->inject_gs_now(
          static_cast<LocalIfaceIdx>(ev.a), load_link_flit(ev));
      return;
    case kOpNaGsRecover:
      static_cast<NetworkAdapter*>(ev.p0)->recover_gs_stage(
          static_cast<LocalIfaceIdx>(ev.a));
      return;
    case kOpNaGsHandoff: {
      Flit f = load_flit(ev);
      static_cast<NetworkAdapter*>(ev.p0)->handoff_gs(
          static_cast<LocalIfaceIdx>(ev.a), std::move(f));
      return;
    }
    case kOpNaBeInject:
      static_cast<NetworkAdapter*>(ev.p0)->inject_be_now(load_flit(ev));
      return;
    case kOpNaBeRecover:
      static_cast<NetworkAdapter*>(ev.p0)->recover_be_stage();
      return;
    case kOpGsSourceTick:
      static_cast<GsStreamSource*>(ev.p0)->tick();
      return;
    case kOpBeSourceInject:
      static_cast<BeTrafficSource*>(ev.p0)->inject();
      return;
    case kOpVcLocalReverse:
      static_cast<VcControlModule*>(ev.p0)->deliver_local(
          static_cast<LocalIfaceIdx>(ev.a), ev.b != 0);
      return;
    case kOpNaSinkService:
      static_cast<NetworkAdapter*>(ev.p0)->serve_sink(
          static_cast<LocalIfaceIdx>(ev.a));
      return;
    case kOpNaBeDeliver:
      static_cast<Router*>(ev.p0)->deliver_local_be(load_flit(ev));
      return;
    case kOpShareboxRearm:
      static_cast<Sharebox*>(ev.p0)->rearm();
      return;
    case kOpGsSourceStart:
      static_cast<GsStreamSource*>(ev.p0)->begin();
      return;
    case kOpBeSourceStart:
      static_cast<BeTrafficSource*>(ev.p0)->begin();
      return;
    case kOpBePhaseToggle:
      static_cast<BeTrafficSource*>(ev.p0)->toggle_phase();
      return;
    case kOpBeTraceInject:
      static_cast<BeTraceSource*>(ev.p0)->inject(ev.d);
      return;
    case kOpBrokerClear:
      static_cast<ConnectionBroker*>(ev.p0)->begin_clear(ev.d);
      return;
    case kOpControlPlane:
      sim::ControlPlane::fire(ev);
      return;
    default:
      break;
  }
  MANGO_ASSERT(false, "typed event with an unknown opcode " +
                          std::to_string(static_cast<unsigned>(ev.op)));
}

}  // namespace mango::noc::events
