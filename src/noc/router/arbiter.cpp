#include "noc/router/arbiter.hpp"

#include <algorithm>

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

LinkArbiter::LinkArbiter(sim::Simulator& sim, const RouterConfig& cfg,
                         const StageDelays& delays, std::string name)
    : sim_(sim),
      kind_(cfg.arbiter),
      arb_cycle_(delays.arb_cycle),
      name_(std::move(name)),
      vcs_(cfg.vcs_per_port),
      gs_grants_(vcs_, 0) {
  events::install(sim_);
}

void LinkArbiter::set_request_gs(VcIdx vc, bool requesting) {
  MANGO_ASSERT(vc < vcs_, "request for nonexistent VC on " + name_);
  const std::uint32_t bit = 1u << vc;
  if (((gs_mask_ & bit) != 0) == requesting) return;
  gs_mask_ ^= bit;
  if (requesting) try_grant();
}

void LinkArbiter::set_request_be(bool requesting) {
  if (be_req_ == requesting) return;
  be_req_ = requesting;
  if (requesting) try_grant();
}

int LinkArbiter::pick() const {
  if (gs_mask_ != 0) {
    if (kind_ != ArbiterKind::kFairShare) return __builtin_ctz(gs_mask_);
    // Round-robin ring over the V VCs. The scan is a rotate +
    // count-trailing-zeros over the request bits — identical winner to
    // the per-slot loop it replaces.
    const unsigned r = rr_next_;
    const std::uint32_t rot = (gs_mask_ >> r) | (gs_mask_ << (vcs_ - r));
    return static_cast<int>(
        (r + static_cast<unsigned>(__builtin_ctz(rot))) % vcs_);
  }
  // BE takes only the cycles no GS VC requests, under every scheme.
  return be_req_ ? static_cast<int>(vcs_) : -1;
}

void LinkArbiter::try_grant() {
  if (busy_) return;
  const int sel = pick();
  if (sel < 0) return;
  busy_ = true;
  ++total_grants_;
  if (sel == static_cast<int>(vcs_)) {
    ++be_grants_;
    MANGO_ASSERT(static_cast<bool>(grant_be_), "no BE grant sink on " + name_);
    grant_be_();
  } else {
    ++gs_grants_[static_cast<unsigned>(sel)];
    if (kind_ == ArbiterKind::kFairShare) {
      rr_next_ = (static_cast<unsigned>(sel) + 1) % vcs_;
    }
    MANGO_ASSERT(static_cast<bool>(grant_gs_), "no GS grant sink on " + name_);
    grant_gs_(static_cast<VcIdx>(sel));
  }
  // The link-output stage recovers after one arbitration cycle; the
  // reciprocal of this pacing is the port speed reported in Section 6.
  events::after(sim_, arb_cycle_, events::kOpArbRearm, this);
}

void LinkArbiter::complete_cycle() {
  busy_ = false;
  try_grant();
}

}  // namespace mango::noc
