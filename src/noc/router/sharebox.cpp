#include "noc/router/sharebox.hpp"

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

void FlowBox::on_admit() {
  MANGO_ASSERT(free_ > 0, "flow box admitted a flit with no free slot");
  --free_;
}

void FlowBox::on_reverse_signal() {
  MANGO_ASSERT(free_ < total_, "reverse signal on a flow box with no flit out");
  // The wire delay is charged by the caller (link / the NA's local wire);
  // a sharebox then re-arms after its own delay, a credit counts at once.
  if (rearm_ps_ > 0) {
    events::after(sim_, rearm_ps_, events::kOpFlowBoxRearm, this);
    return;
  }
  rearm();
}

void FlowBox::complete_reverse() {
  // The re-arm delay was charged into the caller's event timestamp, and
  // nothing else frees a slot in that interval, so this is the transition
  // on_reverse_signal's scheduled re-arm would make now.
  MANGO_ASSERT(free_ < total_, "reverse signal on a flow box with no flit out");
  rearm();
}

void FlowBox::rearm() {
  ++free_;
  if (on_ready_) on_ready_();
}

}  // namespace mango::noc
