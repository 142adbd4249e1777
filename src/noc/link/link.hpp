// Inter-router link (Section 3/6).
//
// A link is a pair of unidirectional bundled-data channels plus, per
// direction, V unlock wires (share-based VC control) and one BE credit
// wire running opposite to the data. Long links are pipelined: each
// extra stage adds forward latency without reducing throughput (the
// clockless stages cycle faster than the link-output stage that paces
// flits). Delay-insensitive 1-of-4 signaling — which the paper advocates
// for future MANGO versions — would change encoding, not this timing
// model, so the link is modelled as constant-delay transport with strict
// FIFO ordering.
#pragma once

#include <cstdint>

#include "noc/common/config.hpp"
#include "noc/common/flit.hpp"
#include "noc/common/ids.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

class Router;
struct BoundaryChannel;

class Link {
 public:
  /// Connects a.router's port a.port to b.router's port b.port (normally
  /// opposite directions of neighbouring nodes). `pipeline_stages` >= 1.
  struct Endpoint {
    Router* router = nullptr;
    PortIdx port = 0;
  };

  /// `skew_ps` models the worst wire-delay mismatch within the data
  /// bundle per stage (process variation, routing detours). Bundled-data
  /// links must close timing: construction rejects skew beyond the
  /// bundling margin. 1-of-4 links are delay-insensitive: any skew is
  /// tolerated and simply adds to the forward latency, together with the
  /// completion-detection overhead.
  ///
  /// The link runs in the SimContext of its endpoint routers. The
  /// endpoints normally share one context; endpoints in different
  /// contexts (a sharded Network's boundary links) are allowed only if
  /// set_boundary() attaches a handoff channel per direction before the
  /// first send.
  Link(Endpoint a, Endpoint b, unsigned pipeline_stages = 1,
       LinkSignaling signaling = LinkSignaling::kBundledData,
       sim::Time skew_ps = 0);

  /// Sends a flit from `from` to the peer (arrives after the merge +
  /// wire delay at the peer's input port, where the split/switch stage
  /// runs as a second event). Coalesced GS transfers bypass this: the
  /// router's cached send plan folds the stage into one event. BE
  /// transfers always take this two-event chain: push_input runs the BE
  /// router's arbitration synchronously at dispatch, so its
  /// same-timestamp order against other BE events is observable, and
  /// folding would move its insertion point and flip tie-breaks.
  void send_flit(const Router* from, LinkFlit lf);

  /// Reverse GS signal (unlock toggle / credit) from `from` back to the
  /// peer's flow box on wire `wire`.
  void send_reverse(const Router* from, VcIdx wire);

  /// BE credit return from `from` back to the peer's BE output stage,
  /// for BE VC lane `vc`.
  void send_be_credit(const Router* from, BeVcIdx vc);

  /// Peer endpoint of `from` (cached send plans resolve this once).
  const Endpoint& peer_endpoint(const Router* from) const {
    return peer_of(from);
  }
  /// Per-direction sent-flit counter for cached (router-side) transfer
  /// plans. Direction-split so the two endpoint shards never share a
  /// counter cache line contentiously.
  std::uint64_t* flit_counter(const Router* from) {
    return &flits_carried_[dir_of(from)];
  }

  /// Marks this link as a shard boundary: sends from a_ go to `ab`,
  /// sends from b_ to `ba`. Must be called before any traffic when the
  /// endpoints live in different SimContexts.
  void set_boundary(BoundaryChannel* ab, BoundaryChannel* ba) {
    boundary_[0] = ab;
    boundary_[1] = ba;
  }
  /// True when sends from `from` cross a shard boundary.
  bool is_boundary(const Router* from) const {
    return boundary_[dir_of(from)] != nullptr;
  }

  unsigned pipeline_stages() const { return stages_; }
  LinkSignaling signaling() const { return signaling_; }
  sim::Time skew() const { return skew_; }
  std::uint64_t flits_carried() const {
    return flits_carried_[0] + flits_carried_[1];
  }

  /// BE credit-wire latency (stages * credit-wire delay).
  sim::Time be_credit_latency() const;

  /// First endpoint as constructed (diagnostics/reports identify a link
  /// by this side).
  const Endpoint& endpoint_a() const { return a_; }

  /// Forward latency of this link (merge + stages * wire, plus skew and
  /// completion detection for 1-of-4).
  sim::Time forward_latency() const;
  /// Reverse-wire latency of this link.
  sim::Time reverse_latency() const;

  /// Total wires of one direction of this link (data + ack + V unlock
  /// wires + BE credit), for area/wiring studies.
  unsigned wires_per_direction() const;

 private:
  const Endpoint& peer_of(const Router* from) const;
  unsigned dir_of(const Router* from) const;
  /// Delivers `ev` to the peer after `delay`: scheduled into the shared
  /// kernel, or handed to the boundary channel on a cross-shard link.
  void transfer(unsigned dir, sim::Time delay, const sim::TypedEvent& ev);

  sim::Simulator* sims_[2];  ///< per endpoint (equal for intra-shard links)
  Endpoint a_;
  Endpoint b_;
  unsigned stages_;
  LinkSignaling signaling_;
  sim::Time skew_;
  bool coalesce_ = true;  ///< from RouterConfig::coalesce_handshakes
  BoundaryChannel* boundary_[2] = {nullptr, nullptr};  ///< a->b, b->a
  std::uint64_t flits_carried_[2] = {0, 0};            ///< a->b, b->a
};

}  // namespace mango::noc
