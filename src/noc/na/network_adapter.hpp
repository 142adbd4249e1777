// Network adapter (Section 3, Fig 1).
//
// Bridges an IP core to the router's local port. The local port exposes
// physical interfaces: 4 GS interfaces (one per local GS input/output
// interface pair) and 1 BE interface. The NA
//
//   * drives GS source interfaces: it holds the first-hop steering bits
//     of the connection starting at that interface plus the flow box
//     (sharebox/credits) for the first media crossing,
//   * consumes GS delivery interfaces (the local output VC buffers),
//   * packetizes/streams BE packets under credit flow control,
//   * performs the clocked<->clockless synchronization for the core (the
//     OCP layer in ocp.hpp models the clocked side; the NA itself is
//     clockless).
//
// GS sources accept flits either through a push queue (gs_send) or a
// pull supplier (set_gs_supplier) — the latter lets saturating workloads
// run without unbounded queues.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "noc/common/config.hpp"
#include "noc/common/flit.hpp"
#include "noc/common/ids.hpp"
#include "noc/common/packet.hpp"
#include "noc/router/router.hpp"
#include "noc/router/sharebox.hpp"
#include "sim/callback.hpp"
#include "sim/pool.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

class NetworkAdapter {
 public:
  /// Inline-capture handlers: these fire once per delivered flit/packet,
  /// and the measurement-hub captures ([&net, &hub, &pool]) fit inline.
  using GsHandler = sim::InlineFunction<void(LocalIfaceIdx, Flit&&), 5>;
  using BeHandler = sim::InlineFunction<void(BePacket&&), 5>;
  using GsSupplier = sim::InlineFunction<std::optional<Flit>(), 5>;
  /// Passive (measurement-style) handlers: invoked synchronously at the
  /// pop with the delivery instant `at` (= the time the evented handler
  /// would run) as an argument, so the final NA wire hop needs no event
  /// of its own. Only for handlers that do not feed back into the
  /// simulation — a reactive consumer (e.g. OCP) must use the evented
  /// set_gs_handler/set_be_handler, which preserve exact firing order.
  using GsTimedHandler =
      sim::InlineFunction<void(LocalIfaceIdx, Flit&&, sim::Time at), 5>;
  using BeTimedHandler =
      sim::InlineFunction<void(BePacket&&, sim::Time at), 5>;

  /// Attaches to `router`'s local port and runs in the router's
  /// SimContext.
  NetworkAdapter(Router& router, std::string name);

  // --- GS source side ---
  /// Binds a source interface to a connection: first-hop steering bits
  /// and a fresh flow box for the first media crossing.
  void configure_gs_source(LocalIfaceIdx iface, SteerBits first_hop);
  void release_gs_source(LocalIfaceIdx iface);
  bool gs_source_configured(LocalIfaceIdx iface) const;

  /// Queues a flit on a configured source interface (push model).
  void gs_send(LocalIfaceIdx iface, Flit f);
  /// Installs a pull supplier consulted whenever the interface can send.
  void set_gs_supplier(LocalIfaceIdx iface, GsSupplier s);
  std::size_t gs_queue_depth(LocalIfaceIdx iface) const;
  std::uint64_t gs_flits_sent(LocalIfaceIdx iface) const;

  // --- GS delivery side ---
  /// Installing either handler style replaces the other (last one wins).
  void set_gs_handler(GsHandler h) {
    gs_handler_ = std::move(h);
    gs_timed_handler_ = nullptr;
  }
  /// Passive variant (see GsTimedHandler).
  void set_gs_handler_timed(GsTimedHandler h) {
    gs_timed_handler_ = std::move(h);
    gs_handler_ = nullptr;
  }
  /// Consumption service time per delivered flit (default 0: the core
  /// keeps up with the link).
  void set_gs_sink_service(sim::Time per_flit) { sink_service_ = per_flit; }

  // --- BE side ---
  /// Sends a packet on BE virtual channel `vc` (< RouterConfig::be_vcs);
  /// all flits get their bevc bit stamped accordingly.
  void send_be_packet(BePacket pkt, BeVcIdx vc = 0);
  /// Installing either handler style replaces the other (last one wins).
  void set_be_handler(BeHandler h) {
    be_handler_ = std::move(h);
    be_timed_handler_ = nullptr;
    wire_be_delivery();
  }
  /// Passive variant (see BeTimedHandler).
  void set_be_handler_timed(BeTimedHandler h) {
    be_timed_handler_ = std::move(h);
    be_handler_ = nullptr;
    wire_be_delivery();
  }
  std::size_t be_queue_flits() const;
  std::uint64_t be_packets_sent() const { return be_packets_sent_; }
  std::uint64_t be_packets_received() const { return be_packets_received_; }

  Router& router() { return router_; }
  const std::string& name() const { return name_; }

  // --- typed-dispatch entry points (scheduled by the drain stages) ---
  /// Uncoalesced GS injection lands at the router's local port.
  void inject_gs_now(LocalIfaceIdx iface, const LinkFlit& lf);
  /// The local GS handshake stage recovers after one cycle.
  void recover_gs_stage(LocalIfaceIdx iface);
  /// A consumed GS flit crosses the NA-local wire to the handler.
  void handoff_gs(LocalIfaceIdx iface, Flit&& f);
  /// A BE flit crosses the NA-local wire into the router.
  void inject_be_now(Flit f);
  /// The BE injection stage recovers after one cycle.
  void recover_be_stage();
  /// The sink's service time elapsed: consume `iface`'s head, if any.
  void serve_sink(LocalIfaceIdx iface);

 private:
  struct GsSource {
    bool configured = false;
    SteerBits steer;
    /// Coalesced-injection plan resolved at configure time: the VC
    /// buffer the first hop lands in and the wire + stage delay.
    VcBuffer* inject_target = nullptr;
    sim::Time inject_delay = 0;
    std::unique_ptr<VcFlowControl> flow;
    sim::FifoRing<Flit> queue;
    GsSupplier supplier;
    bool stage_busy = false;  ///< local interface handshake in progress
    std::uint64_t sent = 0;
  };

  void drain_gs(LocalIfaceIdx iface);
  void on_local_reverse(LocalIfaceIdx iface);
  void complete_local_reverse(LocalIfaceIdx iface);
  void on_local_head(LocalIfaceIdx iface);
  void drain_be();
  /// (Re)installs the router-side BE delivery hook to match the handler
  /// style (evented vs passive-timed).
  void wire_be_delivery();
  void accept_be_flit(Flit&& f, sim::Time at);

  sim::Simulator& sim_;
  Router& router_;
  std::string name_;
  const StageDelays& delays_;
  /// Per-context flit-vector pool: retired packet bodies are recycled
  /// here (send side) and reassembly storage is drawn from it (receive
  /// side), so steady-state BE traffic never touches the heap.
  sim::VectorPool<Flit>& flit_pool_;
  const bool coalesce_;  ///< RouterConfig::coalesce_handshakes

  std::array<GsSource, 8> gs_src_{};  // sized for max local ifaces
  unsigned num_ifaces_;

  GsHandler gs_handler_;
  GsTimedHandler gs_timed_handler_;
  sim::Time sink_service_ = 0;
  std::array<bool, 8> sink_busy_{};

  /// Per-BE-VC injection lane (queue + credits for the router's per-VC
  /// input buffer) and per-VC packet reassembly on the receive side.
  struct BeLane {
    sim::FifoRing<Flit> queue;
    unsigned credits = 0;
    std::vector<Flit> assembling;
  };
  std::vector<BeLane> be_lanes_;
  unsigned be_rr_ = 0;
  bool be_stage_busy_ = false;
  BeHandler be_handler_;
  BeTimedHandler be_timed_handler_;
  std::uint64_t be_packets_sent_ = 0;
  std::uint64_t be_packets_received_ = 0;
};

}  // namespace mango::noc
