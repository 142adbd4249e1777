// The non-blocking switching module (Section 4.2, Fig 5).
//
// Incoming flits carry 5 steering bits appended at the previous hop. A
// split module per input port consumes the first 3 bits to direct the
// flit to one of two 4x4 half-switches at an output port (or to the BE
// router); the half-switch consumes the remaining 2 bits to select one of
// four VC buffers. There is no arbitration anywhere: a VC buffer belongs
// to at most one connection, so no two flits ever contend for the same
// path — switch traversal latency is constant.
//
// Split-code map (documented reconstruction, see DESIGN.md): from a
// network input port p the reachable destinations are the 3 other network
// output ports (2 halves each), the local output port (its 4 GS
// interfaces form one half-switch) and the BE router — exactly 8 codes.
// From the local input the 4 network output ports x 2 halves use all 8
// codes (locally injected BE traffic enters the BE router through the
// local port's dedicated BE interface instead).
#pragma once

#include <array>
#include <cstdint>

#include "noc/common/config.hpp"
#include "noc/common/flit.hpp"
#include "noc/common/ids.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

class SwitchingModule {
 public:
  /// Destination selected by a 3-bit split code.
  struct Dest {
    enum class Kind : std::uint8_t { kInvalid, kGs, kBe } kind = Kind::kInvalid;
    PortIdx out = 0;       ///< GS: output port (network or kLocalPort)
    std::uint8_t half = 0; ///< GS: which 4x4 half-switch
  };

  using GsSink = sim::InlineFunction<void(VcBufferId, Flit&&)>;
  using BeSink = sim::InlineFunction<void(PortIdx in_port, Flit&&)>;

  SwitchingModule(sim::Simulator& sim, const RouterConfig& cfg,
                  const StageDelays& delays);

  /// Installs the GS delivery callback (fires after split + switch +
  /// unsharebox-latch delays; the target VC buffer accepts the flit).
  void set_gs_sink(GsSink sink) { gs_sink_ = std::move(sink); }

  /// Installs the BE delivery callback (fires after the split delay).
  void set_be_sink(BeSink sink) { be_sink_ = std::move(sink); }

  /// Routes a link flit arriving on `in_port`: decodes it with plan()
  /// and schedules the GS or BE delivery after the planned stage delay.
  /// Steering bits are consumed here; the delivered flit no longer
  /// carries them.
  void route(PortIdx in_port, LinkFlit lf);

  /// The one steering decode: split map, VC-limit check and stage delay
  /// (an unmapped split code is a ModelError). route() runs it at
  /// arrival; the coalesced transfer path runs it at send time, since
  /// the split map is static, and folds the stage delay into the link
  /// event's arrival timestamp.
  struct PlannedHop {
    bool to_be = false;
    VcBufferId target{};        ///< GS destination (valid when !to_be)
    sim::Time stage_delay = 0;  ///< split (+ switch + unshare for GS)
  };
  PlannedHop plan(PortIdx in_port, SteerBits steer) const;

  /// Counts a flit delivered through a coalesced transfer event (the
  /// stage traversal happened analytically).
  void note_routed() { ++flits_routed_; }

  // --- typed-dispatch entry points (scheduled by route()) ---
  void deliver_gs(VcBufferId target, Flit&& f) {
    gs_sink_(target, std::move(f));
  }
  void deliver_be(PortIdx in_port, Flit&& f) {
    be_sink_(in_port, std::move(f));
  }

  /// Computes the steering bits a previous hop must append so that a flit
  /// entering on `in_port` lands in VC buffer `dest`. ModelError if the
  /// destination is unreachable from that input (e.g. a U-turn).
  SteerBits encode_gs(PortIdx in_port, VcBufferId dest) const;

  /// The split code that routes a flit entering on network port `in_port`
  /// to the BE router.
  std::uint8_t be_code(PortIdx in_port) const;

  /// Split-map introspection (tests / documentation).
  Dest decode(PortIdx in_port, std::uint8_t split_code) const;

  /// Flits routed (activity counter for the power model).
  std::uint64_t flits_routed() const { return flits_routed_; }

 private:
  static constexpr unsigned kCodes = 1u << kSteerSplitBits;
  static constexpr unsigned kVcsPerHalf = 1u << kSteerVcBits;

  sim::Simulator& sim_;
  const StageDelays& delays_;
  unsigned vcs_per_port_;
  unsigned local_ifaces_;
  std::array<std::array<Dest, kCodes>, kNumPorts> map_{};
  GsSink gs_sink_;
  BeSink be_sink_;
  std::uint64_t flits_routed_ = 0;
};

}  // namespace mango::noc
