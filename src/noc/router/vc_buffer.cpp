#include "noc/router/vc_buffer.hpp"

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

VcBuffer::VcBuffer(sim::Simulator& sim, const StageDelays& delays,
                   VcScheme scheme, VcBufferId id)
    : sim_(sim), delays_(delays), scheme_(scheme), id_(id) {
  events::install(sim_);
}

void VcBuffer::accept_unshare(Flit f) {
  MANGO_ASSERT(!unshare_full_,
               "unsharebox collision at " + to_string(id_) +
                   " — two connections routed to one VC buffer?");
  unshare_ = f;
  unshare_full_ = true;
  ++flits_through_;
  const unsigned occ = (unshare_full_ ? 1u : 0u) + (slot_full_ ? 1u : 0u);
  peak_occupancy_ = std::max(peak_occupancy_, occ);
  try_advance();
}

const Flit& VcBuffer::head() const {
  MANGO_ASSERT(slot_full_, "head() on empty VC buffer " + to_string(id_));
  return slot_;
}

Flit VcBuffer::pop() {
  MANGO_ASSERT(slot_full_, "pop() on empty VC buffer " + to_string(id_));
  slot_full_ = false;
  Flit f = slot_;
  if (scheme_ == VcScheme::kCreditBased && on_reverse_) on_reverse_();
  try_advance();
  return f;
}

void VcBuffer::try_advance() {
  if (advancing_ || !unshare_full_ || slot_full_) return;
  advancing_ = true;
  sim::TypedEvent ev{};
  ev.op = events::kOpVcAdvance;
  ev.p0 = this;
  sim_.after_typed(delays_.buf_advance, ev);
}

void VcBuffer::complete_advance() {
  advancing_ = false;
  MANGO_ASSERT(unshare_full_ && !slot_full_,
               "VC buffer advance raced at " + to_string(id_));
  slot_ = unshare_;
  slot_full_ = true;
  unshare_full_ = false;
  // Share-based: the flit has left the unsharebox — the media is clear
  // for this VC, toggle the unlock wire to the previous hop.
  if (scheme_ == VcScheme::kShareBased && on_reverse_) on_reverse_();
  if (on_head_) on_head_();
  // A follower can only arrive later (it must cross the media first),
  // so no second advance can be pending here.
}

}  // namespace mango::noc
