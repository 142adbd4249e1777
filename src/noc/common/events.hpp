// Typed event records for the NoC model.
//
// Every kernel event in the model — link transfers, switching
// traversals, BE route cycles, arbiter/stage recoveries, credit and
// reverse signals, source fires, and the cold ones (sink service,
// source starts, broker drains) — is a sim::TypedEvent record (a
// one-byte opcode plus packed args filling the event node's 64-byte
// capture area) dispatched through the single switch in
// dispatch_event(), entering the component models through non-virtual
// entry points. Actions that own memory (OCP clock edges, host-local
// programming, churn timers, the baseline routers' clocks) go through
// a sim::ControlPlane instead: in kernel mode the plane parks the
// closure and schedules one kOpControlPlane record carrying its slot.
//
// Every emitting component registers the switch idempotently from its
// constructor (install()), so standalone component tests work without a
// Network, and schedules its records directly with Simulator::after_typed
// / at_typed. A record crossing a shard boundary stays a TypedEvent: the
// link hands it to the barrier, which admits it with admit_typed.
#pragma once

#include <cstring>

#include "noc/common/flit.hpp"
#include "sim/simulator.hpp"

namespace mango::noc::events {

/// Opcodes, each documenting its packed-argument convention. 0 is no
/// opcode (a zeroed record is rejected by the switch), and
/// kOpControlPlane is the value sim/ reserves for ControlPlane posts.
enum Op : std::uint8_t {
  kOpLinkFlit = 1,    ///< p0=Router*, a=in_port; payload LinkFlit
  kOpGsDeliverPtr,    ///< p0=Router*, p1=VcBuffer*; payload Flit
  kOpReverse,         ///< p0=Router*, a=out_port, b=wire
  kOpReverseDone,     ///< p0=Router*, a=out_port, b=wire (coalesced)
  kOpBeCredit,        ///< p0=Router*, a=out_port, b=be_vc
  kOpBeRouteDone,     ///< p0=BeRouter*, a=out; payload Flit
  kOpArbRearm,        ///< p0=LinkArbiter*
  kOpVcAdvance,       ///< p0=VcBuffer*
  kOpSwitchGs,        ///< p0=SwitchingModule*, a=port, b=vc; payload Flit
  kOpSwitchBe,        ///< p0=SwitchingModule*, a=in_port; payload Flit
  kOpGsReqRecheck,    ///< p0=Router*, a=port, b=vc
  kOpLocalBeCredit,   ///< p0=Router*, a=be_vc
  kOpNaGsInject,      ///< p0=NetworkAdapter*, a=iface; payload LinkFlit
  kOpNaGsRecover,     ///< p0=NetworkAdapter*, a=iface
  kOpNaGsHandoff,     ///< p0=NetworkAdapter*, a=iface; payload Flit
  kOpNaBeInject,      ///< p0=NetworkAdapter*; payload Flit
  kOpNaBeRecover,     ///< p0=NetworkAdapter*
  kOpGsSourceTick,    ///< p0=GsStreamSource*
  kOpBeSourceInject,  ///< p0=BeTrafficSource*
  kOpVcLocalReverse,  ///< p0=VcControlModule*, a=iface, b=complete-flag
  kOpNaSinkService,   ///< p0=NetworkAdapter*, a=iface
  kOpNaBeDeliver,     ///< p0=Router*; payload Flit (NA-link BE forward)
  kOpShareboxRearm,   ///< p0=Sharebox*
  kOpGsSourceStart,   ///< p0=GsStreamSource*
  kOpBeSourceStart,   ///< p0=BeTrafficSource*
  kOpBePhaseToggle,   ///< p0=BeTrafficSource*
  kOpBeTraceInject,   ///< p0=BeTraceSource*, d=trace index
  kOpBrokerClear,     ///< p0=ConnectionBroker*, d=request id
  kOpControlPlane = sim::kOpControlPlane,  ///< p0=ControlPlane*, d=slot
};

/// The typed-event switch (the only TypedDispatcher in the model).
void dispatch_event(sim::TypedEvent& ev);

/// Registers the switch with `sim`. Idempotent; every emitting
/// component calls this from its constructor.
inline void install(sim::Simulator& sim) {
  sim.set_typed_dispatcher(&dispatch_event);
}

// --- payload marshalling (trivially copyable blobs, by memcpy) ---

static_assert(sizeof(Flit) <= sizeof(sim::TypedEvent::payload),
              "Flit must fit the typed payload area");
static_assert(sizeof(LinkFlit) <= sizeof(sim::TypedEvent::payload),
              "LinkFlit must fit the typed payload area");

inline void store_flit(sim::TypedEvent& ev, const Flit& f) {
  std::memcpy(ev.payload, &f, sizeof(Flit));
}
inline Flit load_flit(const sim::TypedEvent& ev) {
  Flit f;
  std::memcpy(&f, ev.payload, sizeof(Flit));
  return f;
}
inline void store_link_flit(sim::TypedEvent& ev, const LinkFlit& lf) {
  std::memcpy(ev.payload, &lf, sizeof(LinkFlit));
}
inline LinkFlit load_link_flit(const sim::TypedEvent& ev) {
  LinkFlit lf;
  std::memcpy(&lf, ev.payload, sizeof(LinkFlit));
  return lf;
}

/// A record with opcode `op`, receiver `p0` and scalars `a`, `b`; the
/// caller sets p1 or d where its opcode needs them.
inline sim::TypedEvent make(Op op, void* p0, std::uint8_t a = 0,
                            std::uint8_t b = 0) {
  sim::TypedEvent ev{};
  ev.op = op;
  ev.a = a;
  ev.b = b;
  ev.p0 = p0;
  return ev;
}

}  // namespace mango::noc::events
