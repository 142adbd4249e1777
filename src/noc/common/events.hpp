// Typed event records for the NoC model.
//
// Every kernel event in the model — link transfers, switching
// traversals, BE route cycles, arbiter/stage recoveries, credit and
// reverse signals, source fires, and the cold ones (sink service,
// source starts, broker drains) — is a sim::TypedEvent record (a
// one-byte opcode plus packed args in 64 bytes, built and dispatched in
// its kernel slot) dispatched through the single switch in
// dispatch_event(), entering the component models through non-virtual
// entry points. A record's p0 is the component that handles it: the
// local-port records (first-hop reverse, BE credit, BE delivery) name
// the attached NetworkAdapter itself, so no relay sits between the
// switch and the NA. The NA-local delivery records run only in the
// chains the NA does not fold: kOpNaBeDeliver without coalesced
// handshakes, kOpNaSinkService and kOpNaGsHandoff also on credit-based
// local buffers and under a non-zero GS sink service time. Otherwise
// the NA calls its handler directly with the delivery instant. Actions that
// own memory (OCP clock edges, host-local programming, churn timers,
// the baseline routers' clocks) go through a sim::ControlPlane
// instead: in kernel mode the plane parks the closure and schedules one
// kOpControlPlane record carrying its slot.
//
// Every emitting component registers the switch idempotently from its
// constructor (install()), so standalone component tests work without a
// Network, and builds each record in its kernel slot with after() / at()
// (Simulator::emplace_at). A record crossing a shard boundary stays a
// TypedEvent: the link builds it in its shard pair's outbox, and the
// receiving shard admits it with admit_typed.
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
  kOpLocalBeCredit,   ///< p0=NetworkAdapter*, a=be_vc
  kOpNaGsInject,      ///< p0=NetworkAdapter*, a=iface; payload LinkFlit
  kOpNaGsRecover,     ///< p0=NetworkAdapter*, a=iface
  kOpNaGsHandoff,     ///< p0=NetworkAdapter*, a=iface; payload Flit
  kOpNaBeInject,      ///< p0=NetworkAdapter*; payload Flit
  kOpNaBeRecover,     ///< p0=NetworkAdapter*
  kOpGsSourceTick,    ///< p0=GsStreamSource*
  kOpBeSourceInject,  ///< p0=BeTrafficSource*
  kOpVcLocalReverse,  ///< p0=NetworkAdapter*, a=iface, b=complete-flag
  kOpNaSinkService,   ///< p0=NetworkAdapter*, a=iface
  kOpNaBeDeliver,     ///< p0=NetworkAdapter*; payload Flit (NA-link BE forward)
  kOpFlowBoxRearm,    ///< p0=FlowBox* (share-based re-arm; a credit frees at once)
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

/// Schedules a record at absolute time `t` and returns it in its kernel
/// slot with opcode `op`, receiver `p0` and scalars `a`, `b` set and
/// every other field zero; the caller sets p1, d or the payload there
/// (the slot stays put until the event dispatches).
inline sim::TypedEvent& at(sim::Simulator& sim, sim::Time t, Op op,
                           void* p0, std::uint8_t a = 0, std::uint8_t b = 0) {
  sim::TypedEvent& ev = sim.emplace_at(t);
  ev.op = op;
  ev.a = a;
  ev.b = b;
  ev.p0 = p0;
  return ev;
}

/// at() `delay` picoseconds from now.
inline sim::TypedEvent& after(sim::Simulator& sim, sim::Time delay, Op op,
                              void* p0, std::uint8_t a = 0,
                              std::uint8_t b = 0) {
  return at(sim, sim.now() + delay, op, p0, a, b);
}

}  // namespace mango::noc::events
