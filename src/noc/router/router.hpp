// The MANGO router (Fig 2, Fig 8): GS router + BE router + output
// buffers + link arbiters, assembled.
//
// Forward GS data path (per hop):
//   [upstream VC buffer] -> link arbiter grant (flow box admits, steering
//   bits appended from the connection table) -> link -> split module ->
//   4x4 half-switch -> unsharebox of the reserved VC buffer.
// Reverse control path: on the buffer advance (share-based) or buffer pop
// (credit-based) signal_reverse() plays the VC control module (Section
// 4.3): it switches the reverse signal onto the programmed input-port
// wire, the link carries it back, and the upstream flow box re-arms.
//
// BE flits ride the same links through per-port BE output stages that
// merge into the link arbiters in the cycles no GS VC requests.
//
// The local port's partner is the one NetworkAdapter that attaches
// itself (attach_na); the router calls it directly for first-hop
// reverse signals, GS delivery notifications, BE credits and BE
// delivery.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "noc/common/config.hpp"
#include "noc/common/flit.hpp"
#include "noc/common/ids.hpp"
#include "noc/router/arbiter.hpp"
#include "noc/router/be_router.hpp"
#include "noc/router/connection_table.hpp"
#include "noc/router/programming.hpp"
#include "noc/router/sharebox.hpp"
#include "noc/router/switching.hpp"
#include "noc/router/vc_buffer.hpp"
#include "sim/arena.hpp"
#include "sim/context.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

class Link;
class NetworkAdapter;
class Router;

/// Per-network-port stage merging BE flits onto the link: one two-deep
/// FIFO lane per BE VC, requesting the link arbiter while any lane holds
/// a flit and its downstream BE input buffer has a free slot (credit).
/// Lanes are served round-robin so the two BE VCs interleave on the link.
class BeOutputStage {
 public:
  static constexpr unsigned kDepth = 2;

  BeOutputStage() = default;

  void wire(Router* owner, PortIdx port, LinkArbiter* arb, unsigned be_vcs);
  /// Set at network assembly: downstream per-VC buffer depth and the
  /// split code that routes a flit into the downstream BE router.
  void set_downstream(unsigned credits_per_vc, std::uint8_t peer_split_code);

  bool ready(BeVcIdx vc) const { return lanes_.at(vc).fifo.size() < kDepth; }
  void push(Flit&& f);
  void on_grant();                      ///< link arbiter granted BE
  void on_credit_return(BeVcIdx vc);    ///< downstream freed a VC slot

  unsigned credits(BeVcIdx vc = 0) const { return lanes_.at(vc).credits; }

 private:
  struct Lane {
    sim::FifoRing<Flit> fifo;
    unsigned credits = 0;
  };

  void update_request();

  Router* owner_ = nullptr;
  PortIdx port_ = 0;
  LinkArbiter* arb_ = nullptr;
  std::vector<Lane> lanes_;
  unsigned rr_ = 0;
  std::uint8_t peer_split_code_ = 0;
};

/// Aggregated activity counters (input to the power model).
struct RouterActivity {
  std::uint64_t switch_flits = 0;
  std::uint64_t vc_control_signals = 0;
  std::uint64_t arb_grants = 0;
  std::uint64_t be_router_flits = 0;
  std::uint64_t link_flits_sent = 0;  ///< GS and BE flits put on links
};

class Router {
 public:
  /// The router's owned components (VC buffers, flow boxes, link
  /// arbiters) are bump-allocated from `arena`, which destroys them.
  /// Network passes its per-partition arena so a shard's hot state is
  /// contiguous in node-index order.
  Router(sim::SimContext& ctx, const RouterConfig& cfg, NodeId node,
         std::string name, sim::Arena& arena);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// The simulation services this router runs in. Components attached to
  /// the router (NA, links, traffic) reach the kernel/stats/pools this way
  /// instead of taking them as constructor arguments.
  sim::SimContext& ctx() { return ctx_; }

  // --- network assembly ---
  void attach_link(PortIdx port, Link* link);
  Link* link(PortIdx port) const { return links_.at(port); }
  /// Configures the BE output stage toward the neighbour on `port`.
  void configure_be_downstream(PortIdx port, unsigned credits_per_vc,
                               std::uint8_t peer_split_code);

  // --- data-plane entry points (called by Link) ---
  void receive_link_flit(PortIdx in_port, LinkFlit lf);
  /// Reverse GS signal for the flow box of VC buffer (out_port, vc).
  void receive_reverse(PortIdx out_port, VcIdx vc);
  /// BE credit return for the BE output stage on out_port.
  void receive_be_credit(PortIdx out_port, BeVcIdx vc);

  // --- coalesced data-plane entry points ---
  // The sender resolved the switching decision (the GS target buffer
  // comes from its cached transfer plan) and charged the stage delay
  // into the event timestamp; these land the flit (or complete the
  // reverse handshake) directly and account the folded hop.
  void deliver_gs_coalesced(VcBuffer* target, Flit&& f) {
    switching_.note_routed();
    target->accept_unshare(std::move(f));
  }
  void complete_reverse_coalesced(PortIdx out_port, VcIdx vc) {
    flow_control(out_port, vc).complete_reverse();
  }

  // --- typed-dispatch entry points ---
  /// The req_fwd wire delay elapsed: re-evaluate (port, vc)'s request
  /// line against the current buffer/flow state.
  void recheck_gs_request(PortIdx port, VcIdx vc);

  /// Re-arm delay the coalesced reverse path folds into the wire event
  /// (sharebox re-arm for share-based VC control, 0 for credit-based).
  sim::Time reverse_fold_delay() const {
    return FlowBox::rearm_for(scheme_, delays_.sharebox_unlock);
  }
  VcScheme vc_scheme() const { return scheme_; }

  /// Resolved transfer of one granted GS flit: everything send_flit
  /// would recompute per flit (peer endpoint, switching decode, summed
  /// delays), cached per (port, vc) and revalidated against the
  /// connection table's generation — steering is static while a
  /// connection is open.
  struct GsSendPlan {
    std::uint32_t generation = 0;
    bool valid = false;
    Link* link = nullptr;
    Router* peer = nullptr;
    VcBuffer* target = nullptr;  ///< resolved in the peer router
    std::uint64_t* flit_counter = nullptr;  ///< link's per-direction count
    sim::Time fwd = 0;          ///< link forward latency (the folded hop)
    sim::Time total_delay = 0;  ///< fwd + peer switch stage
  };

  // --- local (NA) side ---
  /// Makes `na` the local port's partner. The NA constructor calls this;
  /// a second NA on the same router is a ModelError.
  void attach_na(NetworkAdapter& na);
  /// NA pushes a steered flit into the switching module via a local GS
  /// input interface. The NA charges the local wire delay and obeys its
  /// flow box; `iface` is recorded for diagnostics only.
  void inject_local_gs(LocalIfaceIdx iface, LinkFlit lf);
  bool local_out_has_head(LocalIfaceIdx iface) const;
  Flit local_out_pop(LocalIfaceIdx iface);
  void inject_local_be(Flit f);  ///< NA tracks the credits (per BE VC)

  // --- component access ---
  const RouterConfig& config() const { return cfg_; }
  const StageDelays& delays() const { return delays_; }
  NodeId node() const { return node_; }
  const std::string& name() const { return name_; }
  SwitchingModule& switching() { return switching_; }
  const SwitchingModule& switching() const { return switching_; }
  ConnectionTable& table() { return table_; }
  ProgrammingInterface& programming() { return prog_; }
  LinkArbiter& arbiter(PortIdx port) { return *arbiters_.at(port); }
  const LinkArbiter& arbiter(PortIdx port) const { return *arbiters_.at(port); }
  BeRouter& be_router() { return be_; }
  const BeRouter& be_router() const { return be_; }
  VcBuffer& vc_buffer(VcBufferId id) { return *bufs_.at(buf_index(id)); }
  FlowBox& flow_control(PortIdx port, VcIdx vc);

  RouterActivity activity() const;

 private:
  std::size_t buf_index(VcBufferId id) const;
  /// The VC control module: switches VC buffer `buf`'s reverse signal
  /// onto its programmed input-port wire (a link, or the NA's flow box).
  /// ModelError if the buffer has no programmed reverse entry.
  void signal_reverse(VcBufferId buf);
  bool gs_eligible(PortIdx port, VcIdx vc) const;
  void update_gs_request(PortIdx port, VcIdx vc);
  void on_gs_grant(PortIdx port, VcIdx vc);
  const GsSendPlan& send_plan(PortIdx port, VcIdx vc);

  sim::SimContext& ctx_;
  sim::Simulator& sim_;  ///< = ctx_.sim(); cached for the hot paths
  RouterConfig cfg_;
  StageDelays delays_;
  VcScheme scheme_ = VcScheme::kShareBased;
  NodeId node_;
  std::string name_;

  ConnectionTable table_;
  SwitchingModule switching_;
  ProgrammingInterface prog_;
  BeRouter be_;

  // Arena-owned components (see ctor doc). Network VC buffers (4 * V),
  // then local output interfaces.
  std::vector<VcBuffer*> bufs_;
  // Flow boxes for the network VC buffers only (local delivery has none).
  std::vector<FlowBox*> flow_;
  std::array<LinkArbiter*, kNumDirections> arbiters_{};
  std::array<BeOutputStage, kNumDirections> be_out_;
  std::array<Link*, kNumDirections> links_{};
  /// Cached per-(port, vc) GS transfer plans (coalesced path).
  std::vector<GsSendPlan> send_plans_;

  NetworkAdapter* na_ = nullptr;  ///< the local port's partner, if any
  std::uint64_t vc_control_signals_ = 0;

  /// GS sends count here directly, BE sends through the output stage.
  friend class BeOutputStage;
  std::uint64_t link_flits_sent_ = 0;
};

}  // namespace mango::noc
