// Link access arbiter (Section 4.4) — "the key element in providing GS".
//
// The media path beyond the arbiter is non-blocking, so the arbiter alone
// decides the guarantees a connection gets. The scheme is pluggable:
//
//  * kFairShare — a round-robin ring over the V VCs. Combined with the
//    share-based one-flit-in-media rule, any persistently requesting VC
//    wins at least one of every V grants: a hard >= 1/V bandwidth
//    guarantee; unused shares redistribute automatically.
//  * kStaticPriority — lower VC index wins. With share-based control this
//    realizes ALG-style latency guarantees (ref [6]): VC i waits at most
//    one in-flight flit of each higher-priority VC per grant.
//  * kUnregulated — static priority intended for credit-based VC control:
//    models priority-QoS clockless routers that improve latency for some
//    VCs but give no hard guarantees (low VCs can starve).
//
// BE traffic takes only link cycles no GS VC requests, keeping the hard
// 1/V GS guarantee and GS fully independent of BE load.
//
// Timing: a grant occupies the link-output stage for `arb_cycle` ps; the
// reciprocal of arb_cycle is the paper's per-port speed (515 MHz worst
// case).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/common/config.hpp"
#include "noc/common/ids.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

class LinkArbiter {
 public:
  /// Inline-capture grant sinks: one indirect call per granted flit.
  using GrantGs = sim::InlineFunction<void(VcIdx)>;
  using GrantBe = sim::InlineFunction<void()>;

  LinkArbiter(sim::Simulator& sim, const RouterConfig& cfg,
              const StageDelays& delays, std::string name);

  void set_grant_gs(GrantGs g) { grant_gs_ = std::move(g); }
  void set_grant_be(GrantBe g) { grant_be_ = std::move(g); }

  /// Idempotent request-line updates. A VC requests while it has a head
  /// flit and its flow-control box admits; the router glue keeps these
  /// lines in sync with that condition.
  void set_request_gs(VcIdx vc, bool requesting);
  void set_request_be(bool requesting);

  /// Grant counters (fairness measurements).
  std::uint64_t grants_gs(VcIdx vc) const { return gs_grants_.at(vc); }
  std::uint64_t grants_be() const { return be_grants_; }
  std::uint64_t total_grants() const { return total_grants_; }

  const std::string& name() const { return name_; }

  /// Typed-dispatch entry: the link-output stage recovers after one
  /// arbitration cycle and the ring re-evaluates.
  void complete_cycle();

 private:
  void try_grant();
  /// Returns the granted GS VC, or V for BE, or -1 if nothing eligible.
  int pick() const;

  sim::Simulator& sim_;
  ArbiterKind kind_;
  sim::Time arb_cycle_;
  std::string name_;
  unsigned vcs_;
  /// Raised GS request lines, one bit per VC (V <= 8): the grant scan is
  /// a rotate + count-trailing-zeros instead of a per-slot loop.
  std::uint32_t gs_mask_ = 0;
  bool be_req_ = false;
  bool busy_ = false;
  unsigned rr_next_ = 0;  ///< fair-share: next ring position (0..V-1)
  GrantGs grant_gs_;
  GrantBe grant_be_;
  std::vector<std::uint64_t> gs_grants_;
  std::uint64_t be_grants_ = 0;
  std::uint64_t total_grants_ = 0;
};

}  // namespace mango::noc
