// The best-effort router (Section 5, Fig 7).
//
// Connection-less source routing: the packet header's two MSBs select one
// of the four network output ports; a code pointing "back the way the
// packet came" delivers it to the local port, where two further bits
// select the network adapter or the GS programming interface. The header
// is rotated left two bits per consumed hop. Packets are variable length
// with an EOP control bit; each output arbitrates fairly (round-robin)
// among contending inputs and holds the grant until EOP, keeping packet
// coherency (wormhole). Input buffers use credit-based VC control.
//
// Headers flagged THDR (the reconstruction's scalable scheme for routes
// beyond the paper's 15-code budget, packet.hpp) carry the destination's
// dense node index instead of move codes; the out port comes from an
// O(1) lookup in the shared RouteTable armed by enable_table_routing(),
// and only the routing-phase bit evolves per hop.
//
// The paper reserves one flit control bit "to indicate one of two BE
// VCs"; with RouterConfig::be_vcs = 2 this implementation activates it:
// every input port gets one buffer per BE VC, wormhole state is kept per
// (input, VC), and packets on different VCs interleave freely — a packet
// stalled on one VC no longer head-of-line-blocks the other.
//
// The BE router hands flits bound for the network to per-port BE output
// stages owned by the Router, which merge them onto the links through
// the link arbiters. Its input FIFOs are plain storage: push_input()
// decodes a head that lands in an empty FIFO, and the route cycle
// returns the freed slot's credit upstream right after its pop.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "noc/common/config.hpp"
#include "noc/common/flit.hpp"
#include "noc/common/ids.hpp"
#include "noc/common/packet.hpp"
#include "sim/callback.hpp"
#include "sim/context.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

class RouteTable;  // noc/network/routing.hpp

/// Credit-controlled BE input FIFO (one per input port per BE VC). The
/// owning BeRouter reacts to a new head and returns the credit itself.
class BeInputBuffer {
 public:
  BeInputBuffer(unsigned capacity, std::string name)
      : capacity_(capacity), name_(std::move(name)) {}

  /// Pushes a flit; overflow means the upstream violated credit flow
  /// control and raises ModelError.
  void push(Flit f);

  bool has_head() const { return !fifo_.empty(); }
  const Flit& head() const;
  Flit pop();

  unsigned capacity() const { return capacity_; }
  std::size_t size() const { return fifo_.size(); }
  std::uint64_t flits_through() const { return flits_through_; }

 private:
  unsigned capacity_;
  std::string name_;
  sim::FifoRing<Flit> fifo_;
  std::uint64_t flits_through_ = 0;
};

class BeRouter {
 public:
  /// Output indices: 0..3 = network ports (Direction values), then local.
  static constexpr unsigned kOutLocalNa = 4;
  static constexpr unsigned kOutProgramming = 5;
  static constexpr unsigned kNumOutputs = 6;

  struct OutputHooks {
    /// May accept one more flit of this BE VC now. Inline captures: the
    /// hooks fire once per routed BE flit.
    sim::InlineFunction<bool(BeVcIdx)> ready;
    sim::InlineFunction<void(Flit&&)> push;  ///< hand over one flit
  };

  BeRouter(sim::SimContext& ctx, const RouterConfig& cfg,
           const StageDelays& delays, std::string name);

  /// Wires an output (Router does this during assembly).
  void set_output(unsigned out, OutputHooks hooks);

  /// Installs the upstream credit-return callback of an input port.
  void set_credit_return(PortIdx in, sim::InlineFunction<void(BeVcIdx)> cb);

  /// Activates the dateline VC-class rule for wrap topologies
  /// (torus/ring): a flit entering a dimension travels on BE VC 0 and is
  /// promoted to VC 1 when forwarded out a port marked as a dateline
  /// (its bevc bit is rewritten on the way to the output stage). The
  /// class is inherited while the packet continues within one dimension.
  /// Requires be_vcs == 2. Never called on mesh/irregular networks —
  /// flits then keep their injected VC (the paper's baseline).
  void set_vc_classes(const std::array<bool, kNumDirections>& dateline);

  /// Arms the table-routed header scheme: THDR headers resolve their
  /// next out-port through `table` (this router is dense node index
  /// `self_idx`). Wired by Network after assembly on every router; a
  /// router built without a Network has no table and rejects THDR flits.
  void enable_table_routing(const RouteTable* table, std::size_t self_idx);

  /// Flit arriving on an input port (from the switching module's BE code
  /// or from the NA's local BE interface); its bevc bit selects the VC.
  void push_input(PortIdx in, Flit&& f);

  /// Output stages call this when they free a slot.
  void notify_output_ready(unsigned out);

  /// Typed-dispatch entry: the route cycle scheduled by route_one()
  /// completes (flit handed to the output stage, register recovered).
  void complete_route_cycle(unsigned out, Flit&& f);

  unsigned be_vcs() const { return be_vcs_; }
  const BeInputBuffer& input(PortIdx in, BeVcIdx vc = 0) const {
    return inputs_.at(in).at(vc);
  }

  std::uint64_t flits_routed() const { return flits_routed_; }
  std::uint64_t packets_routed() const { return packets_routed_; }

 private:
  static constexpr std::uint8_t kNoReg = 0xFF;

  struct InputState {
    std::optional<unsigned> target;  ///< decoded output of current packet
    bool awaiting_header = true;
    /// Output whose request mask currently holds this input's bit
    /// (kNoReg when none): the arbitration scan only visits inputs that
    /// actually have a head flit bound for the output.
    std::uint8_t reg_out = kNoReg;
  };
  struct OutputState {
    /// Wormhole grant holder per *outgoing* BE VC lane: the (input
    /// port, input VC) pair whose packet owns the lane. Keyed by the
    /// outgoing class because the dateline rule may map different input
    /// VCs onto one downstream lane, and packet contiguity must hold
    /// per downstream buffer.
    std::array<std::optional<std::pair<PortIdx, BeVcIdx>>, kMaxBeVcs>
        locked{};
    bool busy = false;   ///< mid routing cycle
    unsigned rr_next = 0;  ///< fair arbitration over (port, vc) pairs
    /// One bit per (input port, VC) slot with a head flit bound here.
    std::uint16_t req_mask = 0;
  };

  void on_input_head(PortIdx in, BeVcIdx vc);
  void try_route(unsigned out);
  void register_req(PortIdx in, BeVcIdx vc, unsigned out);
  void clear_req(PortIdx in, BeVcIdx vc);
  /// Decodes the routing target of a header flit arriving on `in`
  /// (either header scheme, selected by the flit's THDR bit).
  unsigned decode_target(PortIdx in, const Flit& head) const;
  /// Outgoing BE VC class of a flit on input VC `cur` forwarded from
  /// `in` to `out` (identity unless set_vc_classes() armed the rule).
  BeVcIdx out_vc_class(PortIdx in, unsigned out, BeVcIdx cur) const;

  sim::Simulator& sim_;
  const StageDelays& delays_;
  std::string name_;
  unsigned be_vcs_;
  bool vc_classes_enabled_ = false;
  std::array<bool, kNumDirections> dateline_{};
  const RouteTable* route_table_ = nullptr;  ///< THDR next-hop lookups
  std::uint32_t self_idx_ = 0;               ///< this router's node index
  std::array<std::vector<BeInputBuffer>, kNumPorts> inputs_;
  std::array<sim::InlineFunction<void(BeVcIdx)>, kNumPorts> credit_cbs_;
  std::array<std::array<InputState, kMaxBeVcs>, kNumPorts> in_state_{};
  std::array<OutputHooks, kNumOutputs> outputs_{};
  std::array<OutputState, kNumOutputs> out_state_{};
  std::uint64_t flits_routed_ = 0;
  std::uint64_t packets_routed_ = 0;
};

}  // namespace mango::noc
