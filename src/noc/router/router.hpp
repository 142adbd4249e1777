// The MANGO router (Fig 2, Fig 8): GS router + BE router + output
// buffers + link arbiters, assembled.
//
// Forward GS data path (per hop):
//   [upstream VC buffer] -> link arbiter grant (flow box admits, steering
//   bits appended from the connection table) -> link -> split module ->
//   4x4 half-switch -> unsharebox of the reserved VC buffer.
// Reverse control path: on the buffer advance (share-based) or buffer pop
// (credit-based) the VC control module switches the reverse signal onto
// the programmed input-port wire, the link carries it back, and the
// upstream flow box re-arms.
//
// BE flits ride the same links through per-port BE output stages that
// merge into the link arbiters according to the configured BePolicy.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
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
#include "noc/router/vc_control.hpp"
#include "sim/arena.hpp"
#include "sim/context.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

class Link;
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
  std::uint64_t flits_sent() const { return flits_sent_; }

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
  std::uint64_t flits_sent_ = 0;
};

/// Aggregated activity counters (input to the power model).
struct RouterActivity {
  std::uint64_t switch_flits = 0;
  std::uint64_t vc_control_signals = 0;
  std::uint64_t arb_grants = 0;
  std::uint64_t be_router_flits = 0;
  std::uint64_t link_flits_sent = 0;
};

class Router {
 public:
  /// With an `arena`, the router's owned components (VC buffers, flow
  /// boxes, link arbiters) are bump-allocated from it and destroyed by
  /// the arena; without one they live on the heap and ~Router() frees
  /// them. Network passes its per-partition arena so a shard's hot
  /// state is contiguous in node-index order.
  Router(sim::SimContext& ctx, const RouterConfig& cfg, NodeId node,
         std::string name, sim::Arena* arena = nullptr);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// The simulation services this router runs in. Components attached to
  /// the router (NA, links, traffic) reach the kernel/RNG/stats this way
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
  /// A local BE credit lands at the NA after the credit-wire delay.
  void deliver_local_be_credit(BeVcIdx vc);
  /// A BE flit crosses the NA-local wire to the NA's delivery sink.
  void deliver_local_be(Flit&& f) { local_be_delivery_(std::move(f)); }

  /// Re-arm delay the coalesced reverse path folds into the wire event
  /// (sharebox re-arm for share-based VC control, 0 for credit-based).
  sim::Time reverse_fold_delay() const {
    return scheme_ == VcScheme::kShareBased ? delays_.sharebox_unlock : 0;
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

  /// Inline-capture local-side hooks ([this]-sized NA captures); each
  /// fires once or twice per flit on the local hot paths.
  using LocalHook = sim::InlineFunction<void(LocalIfaceIdx)>;
  using BeCreditHook = sim::InlineFunction<void(BeVcIdx)>;
  using BeDeliveryHook = sim::InlineFunction<void(Flit&&)>;
  /// Passive BE delivery: called synchronously with the delivery
  /// instant; the NA wire hop is folded into the timestamp.
  using BeTimedDeliveryHook =
      sim::InlineFunction<void(Flit&&, sim::Time at), 4>;

  // --- local (NA) side: GS injection ---
  /// NA pushes a steered flit into the switching module via a local GS
  /// input interface. The NA charges the local wire delay and obeys its
  /// flow box; `iface` is recorded for diagnostics only.
  void inject_local_gs(LocalIfaceIdx iface, LinkFlit lf);
  /// First-hop reverse signals (to the NA's flow boxes).
  void set_local_reverse_handler(LocalHook h) {
    local_reverse_ = std::move(h);
  }
  /// Coalesced first-hop reverse completion (wire + re-arm charged into
  /// the event; the NA completes its flow box directly).
  void set_local_reverse_complete_handler(LocalHook h) {
    local_reverse_complete_ = std::move(h);
  }

  // --- local (NA) side: GS delivery ---
  bool local_out_has_head(LocalIfaceIdx iface) const;
  Flit local_out_pop(LocalIfaceIdx iface);
  /// Fired when a local output interface has a head flit for the NA.
  void set_local_out_notify(LocalHook h) {
    local_out_notify_ = std::move(h);
  }

  // --- local (NA) side: BE ---
  void inject_local_be(Flit f);  ///< NA tracks the credits (per BE VC)
  void set_local_be_credit_handler(BeCreditHook h) {
    local_be_credit_ = std::move(h);
  }
  void set_local_be_delivery(BeDeliveryHook h) {
    local_be_delivery_ = std::move(h);
  }
  /// Passive variant (installed by the NA when its BE handler is
  /// measurement-style); takes precedence under coalescing.
  void set_local_be_delivery_timed(BeTimedDeliveryHook h) {
    local_be_delivery_timed_ = std::move(h);
  }

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
  BeOutputStage& be_output(PortIdx port) { return be_out_.at(port); }
  VcBuffer& vc_buffer(VcBufferId id) { return *bufs_.at(buf_index(id)); }
  VcFlowControl& flow_control(PortIdx port, VcIdx vc);

  RouterActivity activity() const;

 private:
  std::size_t buf_index(VcBufferId id) const;
  /// Allocates an owned component from the arena (when present) or the
  /// heap; ~Router() frees the heap ones.
  template <typename T, typename... Args>
  T* make_component(Args&&... args) {
    if (arena_ != nullptr) {
      return arena_->create<T>(std::forward<Args>(args)...);
    }
    return new T(std::forward<Args>(args)...);
  }
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
  VcControlModule vc_control_;
  ProgrammingInterface prog_;
  BeRouter be_;

  /// Allocation source for the owned components below (null = heap).
  sim::Arena* arena_ = nullptr;
  // Network VC buffers (4 * V), then local output interfaces. Raw
  // pointers either way: arena- or heap-owned per arena_ (see ctor doc).
  std::vector<VcBuffer*> bufs_;
  // Flow boxes for the network VC buffers only (local delivery has none).
  std::vector<VcFlowControl*> flow_;
  std::array<LinkArbiter*, kNumDirections> arbiters_{};
  std::array<BeOutputStage, kNumDirections> be_out_;
  std::array<Link*, kNumDirections> links_{};
  /// Cached per-(port, vc) GS transfer plans (coalesced path).
  std::vector<GsSendPlan> send_plans_;

  LocalHook local_reverse_;
  LocalHook local_reverse_complete_;
  LocalHook local_out_notify_;
  BeCreditHook local_be_credit_;
  BeDeliveryHook local_be_delivery_;
  BeTimedDeliveryHook local_be_delivery_timed_;

  std::uint64_t link_flits_sent_ = 0;
};

}  // namespace mango::noc
