#include "noc/router/arbiter.hpp"

#include <algorithm>

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

LinkArbiter::LinkArbiter(sim::Simulator& sim, const RouterConfig& cfg,
                         const StageDelays& delays, std::string name)
    : sim_(sim),
      kind_(cfg.arbiter),
      be_policy_(cfg.be_policy),
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
  switch (kind_) {
    case ArbiterKind::kFairShare: {
      // Round-robin ring; with kEqualShare BE occupies one extra slot.
      // The scan is a rotate + count-trailing-zeros over the request
      // bits — identical winner to the per-slot loop it replaces.
      const unsigned slots =
          be_policy_ == BePolicy::kEqualShare ? vcs_ + 1 : vcs_;
      std::uint32_t m = gs_mask_;
      if (be_policy_ == BePolicy::kEqualShare && be_req_) m |= 1u << vcs_;
      if (m != 0) {
        const unsigned r = rr_next_;
        const std::uint32_t rot = (m >> r) | (m << (slots - r));
        const unsigned s =
            (r + static_cast<unsigned>(__builtin_ctz(rot))) % slots;
        return static_cast<int>(s);
      }
      if (be_policy_ == BePolicy::kIdleShares && be_req_) {
        return static_cast<int>(vcs_);
      }
      return -1;
    }
    case ArbiterKind::kStaticPriority:
    case ArbiterKind::kUnregulated: {
      if (gs_mask_ != 0) return __builtin_ctz(gs_mask_);
      // BE is the lowest priority under either BE policy.
      if (be_req_) return static_cast<int>(vcs_);
      return -1;
    }
  }
  return -1;
}

void LinkArbiter::try_grant() {
  if (busy_) return;
  const int sel = pick();
  if (sel < 0) return;
  busy_ = true;
  ++total_grants_;
  if (sel == static_cast<int>(vcs_)) {
    ++be_grants_;
    if (kind_ == ArbiterKind::kFairShare &&
        be_policy_ == BePolicy::kEqualShare) {
      rr_next_ = 0;  // BE slot is the last ring position; wrap
    }
    MANGO_ASSERT(static_cast<bool>(grant_be_), "no BE grant sink on " + name_);
    grant_be_();
  } else {
    ++gs_grants_[static_cast<unsigned>(sel)];
    if (kind_ == ArbiterKind::kFairShare) {
      const unsigned slots =
          be_policy_ == BePolicy::kEqualShare ? vcs_ + 1 : vcs_;
      rr_next_ = (static_cast<unsigned>(sel) + 1) % slots;
    }
    MANGO_ASSERT(static_cast<bool>(grant_gs_), "no GS grant sink on " + name_);
    grant_gs_(static_cast<VcIdx>(sel));
  }
  // The link-output stage recovers after one arbitration cycle; the
  // reciprocal of this pacing is the port speed reported in Section 6.
  sim::TypedEvent ev{};
  ev.op = events::kOpArbRearm;
  ev.p0 = this;
  sim_.after_typed(arb_cycle_, ev);
}

void LinkArbiter::complete_cycle() {
  busy_ = false;
  try_grant();
}

}  // namespace mango::noc
