// Traffic generators.
//
// GsStreamSource drives a GS connection's NA source interface: saturating
// (pull supplier), constant bit-rate, or bursty on/off. BeTrafficSource
// injects BE packets with Bernoulli/exponential interarrivals to a fixed
// or uniformly random destination.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "noc/common/ids.hpp"
#include "noc/common/packet.hpp"
#include "noc/na/network_adapter.hpp"
#include "noc/network/network.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {

/// Drives one GS connection endpoint.
class GsStreamSource {
 public:
  struct Options {
    /// Flit period in ps. 0 = saturate (offer a flit whenever the
    /// interface can send).
    sim::Time period_ps = 0;
    /// Bursty mode: alternate on/off phases of these lengths (0 = CBR).
    sim::Time burst_on_ps = 0;
    sim::Time burst_off_ps = 0;
    /// Stop after this many flits (0 = unlimited).
    std::uint64_t max_flits = 0;
  };

  /// Drives `na`'s source interface `iface`; runs in the NA's SimContext.
  GsStreamSource(NetworkAdapter& na, LocalIfaceIdx iface, std::uint32_t tag,
                 Options opt);

  void start(sim::Time at = 0);
  void stop() { stopped_ = true; }

  std::uint64_t generated() const { return generated_; }
  std::uint32_t tag() const { return tag_; }

  /// Typed-dispatch entries: the source starts at its start time, and
  /// one CBR/bursty period elapses (offers a flit and re-arms itself).
  void begin();
  void tick();

 private:
  std::optional<Flit> supply();
  bool in_on_phase() const;
  Flit make_flit();

  sim::Simulator& sim_;
  NetworkAdapter& na_;
  LocalIfaceIdx iface_;
  std::uint32_t tag_;
  Options opt_;
  /// "traffic.gs_flits_generated" in the context stats registry, resolved
  /// once at construction (no map lookup per flit).
  std::uint64_t* generated_stat_;
  sim::Time started_at_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t seq_ = 0;
  bool stopped_ = false;
  bool started_ = false;
};

/// One record of a BE traffic trace.
struct TraceEntry {
  sim::Time at = 0;           ///< injection time
  NodeId dst;                 ///< destination node
  unsigned payload_words = 1; ///< packet payload length
  BeVcIdx vc = 0;             ///< BE virtual channel
};

/// Replays a recorded/synthetic trace of BE packets from one node —
/// reproducible application-level workloads (entries must be
/// time-sorted).
class BeTraceSource {
 public:
  BeTraceSource(Network& net, NodeId src, std::uint32_t tag,
                std::vector<TraceEntry> trace);

  void start();
  std::uint64_t injected() const { return injected_; }
  std::uint32_t tag() const { return tag_; }

  /// Typed-dispatch entry: trace entry `idx` is due.
  void inject(std::size_t idx);

 private:
  Network& net_;
  NodeId src_;
  std::uint32_t tag_;
  std::vector<TraceEntry> trace_;
  /// The source NA's shard kernel: injections must run where the NA
  /// lives, not on shard 0.
  sim::Simulator& sim_;
  sim::VectorPool<Flit>& flit_pool_;  ///< the NA's shard's storage pool
  std::vector<std::uint32_t> payload_buf_;  ///< reused per injection
  std::uint64_t injected_ = 0;
};

/// Injects BE packets from one node.
class BeTrafficSource {
 public:
  struct Options {
    /// Mean interarrival time between packets (exponential). 0 = as fast
    /// as the NA queue threshold allows (saturation).
    sim::Time mean_interarrival_ps = 10000;
    /// Payload words per packet.
    unsigned payload_words = 4;
    /// Fixed destination; unset = uniform random over other nodes.
    std::optional<NodeId> fixed_dst;
    /// Per-packet destination chooser (traffic patterns); overrides
    /// fixed_dst and the uniform default. Must return an in-bounds node
    /// different from the source. Draws from the source's own RNG so the
    /// whole injection process stays deterministic per seed.
    std::function<NodeId(sim::Rng&)> dst_picker;
    /// Markov-modulated on/off injection: the source alternates ON and
    /// OFF phases with exponentially distributed lengths of these means;
    /// packets are only injected while ON (injections that land in an
    /// OFF phase are deferred to the next ON edge). Both 0 = unmodulated.
    sim::Time burst_on_mean_ps = 0;
    sim::Time burst_off_mean_ps = 0;
    /// Holds injection while the NA BE queue exceeds this (backpressure).
    std::size_t na_queue_limit = 64;
    std::uint64_t max_packets = 0;  ///< 0 = unlimited
    std::uint64_t seed = 1;
  };

  BeTrafficSource(Network& net, NodeId src, std::uint32_t tag, Options opt);

  void start(sim::Time at = 0);
  void stop() { stopped_ = true; }

  std::uint64_t generated() const { return generated_; }
  std::uint64_t offered_but_held() const { return held_; }
  std::uint32_t tag() const { return tag_; }

  /// Typed-dispatch entries: the source starts at its start time; an
  /// injection attempt fires (interarrival gap, backpressure retry, or
  /// deferred ON-edge injection); the on/off phase toggles.
  void begin();
  void inject();
  void toggle_phase();

 private:
  void schedule_next();
  void schedule_phase_toggle();
  NodeId pick_dst();
  bool modulated() const {
    return opt_.burst_on_mean_ps > 0 && opt_.burst_off_mean_ps > 0;
  }

  Network& net_;
  NodeId src_;
  std::uint32_t tag_;
  Options opt_;
  sim::Rng rng_;
  /// The source NA's shard kernel (see BeTraceSource::sim_).
  sim::Simulator& sim_;
  /// "traffic.be_packets_generated" in the NA's shard's stats registry
  /// (the experiment layer sums the counter across shards).
  std::uint64_t* generated_stat_;
  sim::VectorPool<Flit>& flit_pool_;  ///< the NA's shard's storage pool
  std::vector<std::uint32_t> payload_buf_;  ///< reused per injection
  std::uint64_t generated_ = 0;
  std::uint64_t held_ = 0;
  bool on_phase_ = true;        ///< current on/off modulation phase
  sim::Time phase_end_ = 0;     ///< when the current phase toggles
  bool stopped_ = false;
};

}  // namespace mango::noc
