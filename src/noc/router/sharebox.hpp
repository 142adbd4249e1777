// The per-VC flow box guarding access to the shared media.
//
// Share-based VC control (Section 4.3, Fig 6): admitting a flit to the
// media locks the VC's sharebox; when the flit advances out of the
// unsharebox in the next router, the unlock wire toggles back and the
// sharebox re-arms. At most one flit of a VC is in the media at any time,
// so no flit can ever stall inside it — the property hard guarantees rest
// on. It costs a single wire per VC.
//
// Credit-based VC control (ref [5], the unregulated baseline) allows as
// many flits in flight as the downstream buffer has slots; it improves
// average-case performance at higher area and wiring cost, and by itself
// provides no media-stall-freedom.
//
// The two schemes differ in two numbers, so one box holds both: its slot
// total (1 lock, or 2 credits) and the re-arm delay after a reverse signal
// (`sharebox_unlock`, or 0 for a credit returned at once). The paper's
// observation that the two can control access to the same link needs no
// type of its own: each box carries its scheme's numbers as data.
#pragma once

#include "noc/common/events.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

/// VC control scheme selector for the GS VCs of a router.
enum class VcScheme {
  kShareBased,   ///< MANGO default: non-blocking media, hard guarantees
  kCreditBased,  ///< baseline/ablation: better average case, no stall-freedom
};

/// Upstream-side admission control for one VC onto one shared media.
class FlowBox final {
 public:
  /// Inline callback: ready notifications fire once per flit, and their
  /// captures ([this, port, vc]-sized) stay within the inline budget.
  using Notify = sim::InlineCallback;

  /// Delay from a reverse signal to the freed slot: the sharebox re-arm
  /// for share-based control, 0 for a credit.
  static constexpr sim::Time rearm_for(VcScheme scheme,
                                       sim::Time sharebox_unlock) {
    return scheme == VcScheme::kShareBased ? sharebox_unlock : 0;
  }

  /// Share-based: 1 slot re-armed `sharebox_unlock` after the unlock
  /// toggle. Credit-based: 2 credits (the downstream buffer's slots),
  /// each free again as it returns.
  FlowBox(sim::Simulator& sim, VcScheme scheme, sim::Time sharebox_unlock)
      : sim_(sim),
        rearm_ps_(rearm_for(scheme, sharebox_unlock)),
        free_(scheme == VcScheme::kShareBased ? 1 : 2),
        total_(free_) {
    events::install(sim_);
  }

  /// True if a flit of this VC may currently be admitted to the media.
  bool can_admit() const { return free_ > 0; }

  /// Called when the arbiter grants a flit of this VC onto the media.
  void on_admit();

  /// Called when the reverse signal (unlock toggle / credit return)
  /// arrives from downstream: frees the slot after the re-arm delay.
  void on_reverse_signal();

  /// Coalesced-path variant: the caller already charged the re-arm delay
  /// into the event's timestamp, so the slot is freed immediately.
  void complete_reverse();

  /// Typed-dispatch entry: the re-arm delay after the reverse signal
  /// elapsed.
  void rearm();

  /// Installs a callback fired when can_admit() turns true again.
  void set_on_ready(Notify n) { on_ready_ = std::move(n); }

  unsigned free_slots() const { return free_; }
  unsigned slot_total() const { return total_; }
  sim::Time rearm_ps() const { return rearm_ps_; }

 private:
  sim::Simulator& sim_;
  Notify on_ready_;
  sim::Time rearm_ps_;
  unsigned free_;
  unsigned total_;
};

}  // namespace mango::noc
