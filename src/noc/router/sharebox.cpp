#include "noc/router/sharebox.hpp"

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

void Sharebox::on_admit() {
  MANGO_ASSERT(!locked_, "sharebox admitted a flit while locked");
  locked_ = true;
}

void Sharebox::on_reverse_signal() {
  MANGO_ASSERT(locked_, "unlock toggle on an unlocked sharebox");
  count_reverse();
  sim_.after_typed(rearm_ps_, events::make(events::kOpShareboxRearm, this));
}

void Sharebox::rearm() {
  locked_ = false;
  notify_ready();
}

void Sharebox::complete_reverse() {
  // The re-arm delay was charged into the caller's event timestamp; the
  // box was necessarily locked for the whole wire + re-arm interval
  // (nothing else clears the lock), so the state transition is the same
  // one on_reverse_signal's scheduled re-arm would make now.
  MANGO_ASSERT(locked_, "unlock toggle on an unlocked sharebox");
  count_reverse();
  locked_ = false;
  notify_ready();
}

void CreditBox::on_admit() {
  MANGO_ASSERT(credits_ > 0, "flit admitted without a credit");
  --credits_;
}

void CreditBox::on_reverse_signal() {
  count_reverse();
  // The credit wire delay is charged by the caller (link / VC control
  // module); the counter update itself is immediate.
  MANGO_ASSERT(credits_ < capacity_, "credit overflow: more returns than admits");
  ++credits_;
  notify_ready();
}

std::unique_ptr<VcFlowControl> make_flow_control(sim::Simulator& sim,
                                                 VcScheme scheme,
                                                 sim::Time rearm_ps,
                                                 unsigned credits) {
  if (scheme == VcScheme::kShareBased) {
    return std::make_unique<Sharebox>(sim, rearm_ps);
  }
  return std::make_unique<CreditBox>(sim, credits);
}

VcFlowControl* make_flow_control(sim::Simulator& sim, VcScheme scheme,
                                 sim::Time rearm_ps, unsigned credits,
                                 sim::Arena* arena) {
  if (arena == nullptr) {
    return make_flow_control(sim, scheme, rearm_ps, credits).release();
  }
  if (scheme == VcScheme::kShareBased) {
    return arena->create<Sharebox>(sim, rearm_ps);
  }
  return arena->create<CreditBox>(sim, credits);
}

}  // namespace mango::noc
