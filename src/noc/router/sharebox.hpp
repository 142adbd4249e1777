// Per-VC flow control boxes guarding access to the shared media.
//
// Share-based VC control (Section 4.3, Fig 6): admitting a flit to the
// media locks the VC's sharebox; when the flit advances out of the
// unsharebox in the next router, the unlock wire toggles back and the
// sharebox re-arms. At most one flit of a VC is in the media at any time,
// so no flit can ever stall inside it — the property hard guarantees rest
// on. It costs a single wire per VC.
//
// Credit-based VC control (ref [5], used by the BE channels and by the
// priority-QoS baseline) allows as many flits in flight as the downstream
// buffer has slots; it improves average-case performance at higher area
// and wiring cost, and by itself provides no media-stall-freedom.
//
// Both implement VcFlowControl so routers/NAs can mix schemes per the
// paper's observation that the two can control access to the same link.
#pragma once

#include <cstdint>
#include <memory>

#include "noc/common/events.hpp"
#include "sim/arena.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

/// Upstream-side admission control for one VC onto one shared media.
class VcFlowControl {
 public:
  /// Inline callback: ready notifications fire once per flit, and their
  /// captures ([this, port, vc]-sized) stay within the inline budget.
  using Notify = sim::InlineCallback;

  virtual ~VcFlowControl() = default;

  /// True if a flit of this VC may currently be admitted to the media.
  virtual bool can_admit() const = 0;

  /// Called when the arbiter grants a flit of this VC onto the media.
  virtual void on_admit() = 0;

  /// Called when the reverse signal (unlock toggle / credit return)
  /// arrives from downstream.
  virtual void on_reverse_signal() = 0;

  /// Coalesced-path variant: the caller already charged the completion
  /// delay (sharebox re-arm) into the event's timestamp, so the box
  /// transitions to ready immediately. Equivalent to on_reverse_signal()
  /// followed by its internally scheduled re-arm at this instant.
  virtual void complete_reverse() = 0;

  /// Installs a callback fired when can_admit() turns true again.
  void set_on_ready(Notify n) { on_ready_ = std::move(n); }

  /// Reverse signals received (activity counter for the power model).
  std::uint64_t reverse_signals() const { return reverse_signals_; }

 protected:
  void notify_ready() {
    if (on_ready_) on_ready_();
  }
  void count_reverse() { ++reverse_signals_; }

 private:
  Notify on_ready_;
  std::uint64_t reverse_signals_ = 0;
};

/// Share-based box: locked between admit and unlock toggle.
class Sharebox final : public VcFlowControl {
 public:
  /// `rearm_ps` is the sharebox re-arm delay after the unlock toggle.
  Sharebox(sim::Simulator& sim, sim::Time rearm_ps)
      : sim_(sim), rearm_ps_(rearm_ps) {
    events::install(sim_);
  }

  bool can_admit() const override { return !locked_; }
  void on_admit() override;
  void on_reverse_signal() override;
  void complete_reverse() override;
  /// Typed-dispatch entry: the re-arm delay after the unlock toggle
  /// elapsed.
  void rearm();

  bool locked() const { return locked_; }

 private:
  sim::Simulator& sim_;
  sim::Time rearm_ps_;
  bool locked_ = false;
};

/// Credit-based box: one credit per downstream buffer slot.
class CreditBox final : public VcFlowControl {
 public:
  CreditBox(sim::Simulator& sim, unsigned initial_credits)
      : sim_(sim), credits_(initial_credits), capacity_(initial_credits) {}

  bool can_admit() const override { return credits_ > 0; }
  void on_admit() override;
  void on_reverse_signal() override;
  void complete_reverse() override { on_reverse_signal(); }

  unsigned credits() const { return credits_; }

 private:
  sim::Simulator& sim_;
  unsigned credits_;
  unsigned capacity_;
};

/// VC control scheme selector for the GS VCs of a router.
enum class VcScheme {
  kShareBased,   ///< MANGO default: non-blocking media, hard guarantees
  kCreditBased,  ///< baseline/ablation: better average case, no stall-freedom
};

/// Factory: builds the right box for the scheme. Share-based boxes re-arm
/// after `rearm_ps`; credit boxes start with `credits`.
std::unique_ptr<VcFlowControl> make_flow_control(sim::Simulator& sim,
                                                 VcScheme scheme,
                                                 sim::Time rearm_ps,
                                                 unsigned credits);

/// Arena-aware variant: allocates from `arena` when non-null (the arena
/// then owns the box), from the heap otherwise (the caller deletes it).
VcFlowControl* make_flow_control(sim::Simulator& sim, VcScheme scheme,
                                 sim::Time rearm_ps, unsigned credits,
                                 sim::Arena* arena);

}  // namespace mango::noc
