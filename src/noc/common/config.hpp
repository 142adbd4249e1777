// Router configuration and timing parameters.
//
// The stage delays describe the 4-phase bundled-data control circuits of
// the 0.12 um standard-cell implementation (Section 6). They are the
// substitution for the paper's netlist + static timing analysis: the
// worst-case corner (1.08 V / 125 C) is calibrated so the saturated link
// issue rate is 515 MHz per port, and the typical corner scales all
// delays uniformly to reach 795 MHz — the two numbers the paper reports.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace mango::noc {

/// Process/voltage/temperature corner of the timing model.
enum class TimingCorner {
  kWorstCase,  ///< 1.08 V / 125 C — 515 MHz per port
  kTypical,    ///< nominal       — 795 MHz per port
};

/// Per-stage delays (ps) of the clockless control circuits.
struct StageDelays {
  /// Link-output stage cycle: min separation of consecutive flits granted
  /// onto one link (arbiter decision + merge handshake). The reciprocal
  /// is the paper's "port speed".
  sim::Time arb_cycle = 1942;

  sim::Time merge_fwd = 380;       ///< grant -> flit + steering on the link
  sim::Time link_fwd = 450;        ///< inter-router wire traversal
  sim::Time na_link_fwd = 150;     ///< NA <-> local port wire traversal
  sim::Time split_fwd = 180;       ///< split module (consumes 3 steer bits)
  sim::Time switch_fwd = 200;      ///< 4x4 half-switch (consumes 2 bits)
  sim::Time unshare_fwd = 150;     ///< latching into the unsharebox
  sim::Time buf_advance = 120;     ///< unsharebox -> buffer slot advance
  sim::Time unlock_back = 500;     ///< unlock wire: VC control mux + link
  sim::Time sharebox_unlock = 100; ///< sharebox re-arm after unlock
  sim::Time req_fwd = 60;          ///< buffer head -> arbiter request

  sim::Time be_route_cycle = 700;  ///< BE router per-flit routing cycle
  sim::Time be_credit_back = 400;  ///< BE credit return wire delay

  /// Max wire skew the bundled-data discipline tolerates per link stage
  /// (the data-vs-request matching margin closed at design time).
  sim::Time bundling_margin = 150;
  /// 1-of-4 completion-detection overhead per link stage.
  sim::Time di_completion = 120;

  /// Switching-module traversal of a GS flit: split, half-switch and the
  /// latch into the unsharebox (constant by the non-blocking property,
  /// Section 4.2).
  constexpr sim::Time switch_traversal() const {
    return split_fwd + switch_fwd + unshare_fwd;
  }

  /// Forward latency from link grant at the upstream router to the flit
  /// being latched in the downstream unsharebox.
  constexpr sim::Time media_forward() const {
    return merge_fwd + link_fwd + switch_traversal();
  }

  /// Cycle time of the share-control loop of a single VC across one hop:
  /// the minimum spacing between two flits of the *same* VC on a link
  /// (Section 4.3: a single VC cannot utilize the full link bandwidth).
  constexpr sim::Time single_vc_cycle() const {
    return media_forward() + buf_advance + unlock_back + sharebox_unlock +
           req_fwd;
  }
};

/// Stage delays for a corner. kWorstCase is the calibration point;
/// kTypical scales every delay by 1258/1942 (the 515->795 MHz ratio).
StageDelays stage_delays(TimingCorner corner);

/// Link-access arbitration scheme (Section 4.4: GS schemes are pluggable).
/// E10 compares the three on one saturated link.
enum class ArbiterKind {
  /// Round-robin: every VC guaranteed >= 1/V of the link. The MANGO
  /// demonstrator's scheme.
  kFairShare,
  /// Lower VC index wins, with share-based VC control: the ALG-style
  /// configuration (Section 2, ref [6]) that bounds every VC's service
  /// interference, giving latency guarantees per priority level.
  kStaticPriority,
  /// Static priority with credit-based VC control and no per-VC fairness
  /// intent: the clockless priority-VC QoS baseline (Felicijan & Furber,
  /// Section 2, ref [9]). A high-priority VC claims back-to-back link
  /// cycles while its credits last, so low-priority VCs can starve —
  /// "differentiated services by prioritizing VCs", no hard guarantees.
  kUnregulated,
};

/// Inter-router link signaling discipline (Section 6).
///
/// The demonstrator uses 4-phase bundled data, which assumes the data
/// wires and the request are delay-matched within a margin — a timing
/// closure obligation on every link. The paper advocates
/// delay-insensitive 1-of-4 encoding for future MANGO versions: one hot
/// wire out of four per 2-bit group, correct under *any* wire skew, at
/// the cost of ~2x the wires and a completion-detection delay.
enum class LinkSignaling {
  kBundledData,
  kOneOfFour,
};

/// Forward wire count of a link for a signaling discipline (39-bit link
/// flits): bundled = data + req; 1-of-4 = 4 wires per 2-bit group. The
/// acknowledge and the V unlock wires come on top in both cases.
constexpr unsigned link_forward_wires(LinkSignaling s) {
  constexpr unsigned kBits = 39;
  return s == LinkSignaling::kBundledData ? kBits + 1
                                          : ((kBits + 1) / 2) * 4;
}

/// Static configuration of one MANGO router.
struct RouterConfig {
  unsigned vcs_per_port = 8;      ///< V: VC buffers per network port
  unsigned local_gs_ifaces = 4;   ///< GS interfaces on the local port
  unsigned be_buffer_depth = 4;   ///< BE input FIFO depth (credits), per VC
  /// BE virtual channels (1 or 2). The paper reserves one flit bit "to
  /// indicate one of two BE VCs ... not used in the present
  /// implementation, but can be used to extend the BE router" (Section
  /// 5); be_vcs = 2 enables that extension (per-VC input buffers and
  /// wormhole state, avoiding head-of-line blocking between packets).
  unsigned be_vcs = 1;
  ArbiterKind arbiter = ArbiterKind::kFairShare;
  TimingCorner corner = TimingCorner::kWorstCase;

  /// Coalesce fixed-delay handshake event chains into single scheduled
  /// transfer events with analytically computed arrival timestamps:
  /// link forward + downstream switch stage, NA injection wire + switch
  /// stage, and reverse wire + sharebox re-arm. Arrival times and all
  /// observable state transitions are identical to the multi-event
  /// chains (differential-tested in tests/test_hotpath.cpp), and folded
  /// hops still count as dispatched events (Simulator::
  /// note_folded_hop_at) so event totals stay comparable across
  /// versions. false = legacy per-hop event chains (the reference the
  /// differential test runs against).
  bool coalesce_handshakes = true;

  /// GS connections the router can buffer simultaneously (the paper's
  /// "32 independently buffered GS connections" at V=8).
  unsigned max_gs_connections() const { return 4 * vcs_per_port; }
};

}  // namespace mango::noc
