#include "noc/router/switching.hpp"

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

SwitchingModule::SwitchingModule(sim::Simulator& sim, const RouterConfig& cfg,
                                 const StageDelays& delays)
    : sim_(sim),
      delays_(delays),
      vcs_per_port_(cfg.vcs_per_port),
      local_ifaces_(cfg.local_gs_ifaces) {
  events::install(sim_);
  MANGO_ASSERT(vcs_per_port_ >= 1 && vcs_per_port_ <= 2 * kVcsPerHalf,
               "the 5-bit steering format supports at most 8 VCs per port");
  MANGO_ASSERT(local_ifaces_ >= 1 && local_ifaces_ <= kVcsPerHalf,
               "local GS interfaces form a single half-switch (max 4)");
  const unsigned halves = (vcs_per_port_ + kVcsPerHalf - 1) / kVcsPerHalf;

  // Network input ports: 3 other network outputs x halves, then local,
  // then the BE router.
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    unsigned code = 0;
    for (PortIdx q = 0; q < kNumDirections; ++q) {
      if (q == p) continue;  // no U-turns (Section 4.2)
      for (unsigned h = 0; h < halves; ++h) {
        MANGO_ASSERT(code < kCodes, "split-code budget exceeded");
        map_[p][code++] = Dest{Dest::Kind::kGs, q, static_cast<std::uint8_t>(h)};
      }
    }
    MANGO_ASSERT(code < kCodes, "split-code budget exceeded (local)");
    map_[p][code++] = Dest{Dest::Kind::kGs, kLocalPort, 0};
    MANGO_ASSERT(code < kCodes, "split-code budget exceeded (BE)");
    map_[p][code++] = Dest{Dest::Kind::kBe, 0, 0};
  }

  // Local input: all 4 network outputs x halves.
  {
    unsigned code = 0;
    for (PortIdx q = 0; q < kNumDirections; ++q) {
      for (unsigned h = 0; h < halves; ++h) {
        MANGO_ASSERT(code < kCodes, "split-code budget exceeded (local input)");
        map_[kLocalPort][code++] =
            Dest{Dest::Kind::kGs, q, static_cast<std::uint8_t>(h)};
      }
    }
  }
}

void SwitchingModule::route(PortIdx in_port, LinkFlit lf) {
  const PlannedHop hop = plan(in_port, lf.steer);
  ++flits_routed_;
  if (hop.to_be) {
    MANGO_ASSERT(static_cast<bool>(be_sink_), "switching has no BE sink");
    events::store_flit(events::after(sim_, hop.stage_delay,
                                     events::kOpSwitchBe, this, in_port),
                       lf.flit);
  } else {
    MANGO_ASSERT(static_cast<bool>(gs_sink_), "switching has no GS sink");
    events::store_flit(
        events::after(sim_, hop.stage_delay, events::kOpSwitchGs, this,
                      hop.target.port, hop.target.vc),
        lf.flit);
  }
}

SwitchingModule::PlannedHop SwitchingModule::plan(PortIdx in_port,
                                                  SteerBits steer) const {
  MANGO_ASSERT(in_port < kNumPorts, "plan(): bad input port");
  const Dest dest = map_[in_port][steer.split];
  switch (dest.kind) {
    case Dest::Kind::kGs: {
      const unsigned vc = dest.half * kVcsPerHalf + steer.vc;
      const unsigned limit =
          dest.out == kLocalPort ? local_ifaces_ : vcs_per_port_;
      MANGO_ASSERT(vc < limit, "steering bits select a nonexistent VC buffer");
      PlannedHop p;
      p.target = VcBufferId{dest.out, static_cast<VcIdx>(vc)};
      p.stage_delay =
          delays_.split_fwd + delays_.switch_fwd + delays_.unshare_fwd;
      return p;
    }
    case Dest::Kind::kBe: {
      PlannedHop p;
      p.to_be = true;
      p.stage_delay = delays_.split_fwd;
      return p;
    }
    case Dest::Kind::kInvalid:
      break;
  }
  model_fail("flit entered " + port_name(in_port) +
             " with an unmapped split code " + std::to_string(steer.split));
}

SteerBits SwitchingModule::encode_gs(PortIdx in_port, VcBufferId dest) const {
  MANGO_ASSERT(in_port < kNumPorts, "encode_gs(): bad input port");
  const auto half = static_cast<std::uint8_t>(dest.vc / kVcsPerHalf);
  for (unsigned code = 0; code < kCodes; ++code) {
    const Dest& d = map_[in_port][code];
    if (d.kind == Dest::Kind::kGs && d.out == dest.port && d.half == half) {
      return SteerBits{static_cast<std::uint8_t>(code),
                       static_cast<std::uint8_t>(dest.vc % kVcsPerHalf)};
    }
  }
  model_fail("VC buffer " + to_string(dest) + " unreachable from input " +
             port_name(in_port));
}

std::uint8_t SwitchingModule::be_code(PortIdx in_port) const {
  MANGO_ASSERT(is_network_port(in_port),
               "BE split codes exist on network inputs only "
               "(local BE uses the dedicated NA interface)");
  for (unsigned code = 0; code < kCodes; ++code) {
    if (map_[in_port][code].kind == Dest::Kind::kBe) {
      return static_cast<std::uint8_t>(code);
    }
  }
  model_fail("no BE split code on input " + port_name(in_port));
}

SwitchingModule::Dest SwitchingModule::decode(PortIdx in_port,
                                              std::uint8_t split_code) const {
  MANGO_ASSERT(in_port < kNumPorts && split_code < kCodes, "decode(): bad args");
  return map_[in_port][split_code];
}

}  // namespace mango::noc
