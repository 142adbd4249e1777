// Scenario builders shared by tests, examples, benches and the exp/
// sweep layer: canonical BE traffic patterns and parameterized GS
// connection sets.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <deque>

#include "noc/network/connection_broker.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"

namespace mango::noc {

/// Wires a MeasurementHub to every NA: GS flits and BE packets delivered
/// anywhere in the network are recorded by flow tag. Single-shard
/// networks only (one hub cannot be shared across shard kernels) — use
/// the HubSet overload for sharded networks.
void attach_hub(Network& net, MeasurementHub& hub);

/// Wires one hub per shard: every NA records into its own shard's hub
/// (the HubSet must have exactly net.shard_count() hubs). Works at any
/// shard count; the HubSet's merged reads are shard-count invariant.
void attach_hub(Network& net, HubSet& hubs);

/// Starts uniform-random BE traffic from every node. `mean_interarrival`
/// is per node; tags are kBeTagBase + node index.
inline constexpr std::uint32_t kBeTagBase = 0x42000000;
std::vector<std::unique_ptr<BeTrafficSource>> start_uniform_be(
    Network& net, sim::Time mean_interarrival_ps, unsigned payload_words,
    std::uint64_t seed, sim::Time start_at = 0);

/// Opens a connection (direct programming) and attaches a saturating
/// source. Returns the generator; the connection is owned by `mgr`.
std::unique_ptr<GsStreamSource> saturate_connection(
    Network& net, ConnectionManager& mgr, NodeId src, NodeId dst,
    std::uint32_t tag, sim::Time start_at = 0);

/// Link-bandwidth reference: flits per nanosecond of one link at the
/// configured corner (= 1 / arb_cycle).
double link_capacity_flits_per_ns(const Network& net);

// ---------------------------------------------------------------------------
// BE traffic patterns
// ---------------------------------------------------------------------------

/// Canonical best-effort traffic patterns (Dally/Towles naming).
/// kUniform/kHotspot/kBursty pick destinations stochastically per packet;
/// kTranspose/kBitComplement/kTornado are fixed permutations of the node
/// set. kBursty is spatially uniform with Markov-modulated on/off
/// injection. Patterns are defined per topology family — see
/// pattern_supported(); requesting an undefined combination (e.g.
/// transpose on a ring) is a checked error, never a silent remap.
enum class BePattern {
  kUniform,
  kTranspose,
  kBitComplement,
  kTornado,
  kHotspot,
  kBursty,
};

const char* to_string(BePattern p);
std::optional<BePattern> be_pattern_from_string(const std::string& s);
std::vector<BePattern> all_be_patterns();

struct BePatternOptions {
  NodeId hotspot{0, 0};           ///< kHotspot target node
  double hotspot_fraction = 0.5;  ///< probability a packet goes to the hotspot
  sim::Time burst_on_mean_ps = 50000;    ///< kBursty mean ON phase
  sim::Time burst_off_mean_ps = 150000;  ///< kBursty mean OFF phase
};

/// Whether `p` is defined on `topo`'s family. Uniform, hotspot, bursty
/// and bit-complement work on every topology (they only need the node
/// enumeration); transpose needs a 2D grid (mesh/torus); tornado needs a
/// dimensioned fabric (mesh/torus/ring).
bool pattern_supported(BePattern p, const Topology& topo);

/// Fixed destination of `src` under a permutation pattern. nullopt for
/// stochastic patterns, and for nodes the permutation maps to themselves
/// (those nodes stay silent — e.g. the diagonal under transpose).
/// ModelError when the pattern is not defined on this topology.
std::optional<NodeId> pattern_dst(BePattern p, NodeId src,
                                  const Topology& topo);

/// Per-packet destination for the stochastic patterns (kUniform,
/// kHotspot, kBursty). Always returns a member node != src.
NodeId pattern_pick_dst(BePattern p, NodeId src, const Topology& topo,
                        const BePatternOptions& opt, sim::Rng& rng);

/// Starts one BE source per core following `pattern` — one per node on
/// ordinary fabrics, spec().concentration per node on a concentrated
/// mesh (core j of node i is flow i*k + j; k = 1 reproduces the
/// historical per-node tags and seeds bit-for-bit). Permutation nodes
/// that map to themselves get no sources. Tags are kBeTagBase + flow;
/// per-flow RNGs derive from `seed` + flow as in start_uniform_be.
/// ModelError (before any source starts) when the pattern is undefined
/// on the network's topology.
std::vector<std::unique_ptr<BeTrafficSource>> start_pattern_be(
    Network& net, BePattern pattern, const BePatternOptions& popt,
    sim::Time mean_interarrival_ps, unsigned payload_words,
    std::uint64_t seed, sim::Time start_at = 0);

// ---------------------------------------------------------------------------
// GS connection sets
// ---------------------------------------------------------------------------

/// Parameterized families of GS connection sets.
enum class GsSetKind {
  kNone,         ///< no GS traffic
  kRing,         ///< node i -> node (i+1) % N, row-major order
  kRandomPairs,  ///< `pair_count` random (src != dst) pairs
  kAllToHotspot, ///< every node -> hotspot, capped by local sink ifaces
};

const char* to_string(GsSetKind k);
std::optional<GsSetKind> gs_set_from_string(const std::string& s);

struct GsSetOptions {
  unsigned pair_count = 4;   ///< kRandomPairs: how many pairs to open
  NodeId hotspot{0, 0};      ///< kAllToHotspot target
  std::uint64_t seed = 1;    ///< kRandomPairs sampling seed
};

/// One opened GS connection of a set, ready to be driven.
struct GsSetEndpoint {
  ConnectionId conn = 0;
  NodeId src;
  NodeId dst;
  LocalIfaceIdx src_iface = 0;
  std::uint32_t tag = 0;
};

inline constexpr std::uint32_t kGsTagBase = 0x47000000;

/// Opens the connections of a set via direct programming. Pairs that
/// cannot be routed with the remaining VC/interface resources are
/// skipped (kRandomPairs resamples, kAllToHotspot stops), so the result
/// may hold fewer connections than requested — deterministic per seed.
std::vector<GsSetEndpoint> open_gs_set(Network& net, ConnectionManager& mgr,
                                       GsSetKind kind,
                                       const GsSetOptions& opt);

/// Attaches one GsStreamSource per endpoint (same Options each, the
/// endpoint's tag) and starts them at `start_at`.
std::vector<std::unique_ptr<GsStreamSource>> start_gs_set(
    Network& net, const std::vector<GsSetEndpoint>& endpoints,
    const GsStreamSource::Options& opt, sim::Time start_at = 0);

// ---------------------------------------------------------------------------
// Connection churn (runtime GS lifecycle through the ConnectionBroker)
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kChurnTagBase = 0x48000000;

struct ChurnOptions {
  /// Poisson open-request process (mean gap between requests, > 0).
  sim::Time mean_open_interarrival_ps = 20000;
  /// Exponential holding time: how long a connection streams once Ready.
  sim::Time mean_hold_ps = 300000;
  /// CBR flit period of the per-connection GS stream. Must be >= the
  /// worst-case per-VC service time (fair-share guarantee period) so the
  /// NA source queue stays empty and the post-stop drain terminates;
  /// the constructor throws a ModelError otherwise.
  sim::Time gs_period_ps = 16000;
  std::uint64_t seed = 1;
};

/// Drives dynamic GS connection lifecycles: Poisson open requests with
/// uniformly random (src != dst) pairs through the ConnectionBroker,
/// one CBR GsStreamSource per admitted connection bound to its lifetime
/// (started at Ready, stopped after the holding time), drain-confirmed
/// packet-mode closes. All randomness comes from one seeded private Rng
/// and all scheduling goes through the network's control plane (plain
/// kernel events at one shard, engine-merged actions at N — the
/// workload reads cross-shard state like the destination hub, so its
/// timers must run with every shard parked), so churn scenarios are
/// bit-identical per seed at any shard count.
class ChurnWorkload {
 public:
  struct Totals {
    std::uint64_t opens_requested = 0;
    std::uint64_t streams_started = 0;
    std::uint64_t closes_requested = 0;
    std::uint64_t closes_completed = 0;
    std::uint64_t flits_generated = 0;
    std::uint64_t flits_delivered = 0;
    std::uint64_t seq_errors = 0;
    /// Admitted connections that broke the delivery contract: sequence
    /// errors, or flits still undelivered long after their stream
    /// stopped (lost in a teardown race).
    std::uint64_t violations = 0;
  };

  ChurnWorkload(Network& net, ConnectionBroker& broker, HubSet& hub,
                ChurnOptions opt);

  /// Starts the open-request process (first request one exponential gap
  /// after `at`). The workload must outlive the simulation run.
  void start(sim::Time at = 0);

  /// Evaluates the per-connection delivery contract against the hub at
  /// the experiment horizon. Deterministic per seed.
  Totals finalize(sim::Time horizon) const;

 private:
  enum class SlotState : std::uint8_t {
    kPending,         ///< open requested, not Ready yet (or queued)
    kRejected,        ///< broker rejected the open
    kStreaming,       ///< stream running
    kDrainWait,       ///< stream stopped, waiting for delivered == generated
    kCloseRequested,  ///< broker teardown in flight
    kClosed,          ///< teardown completed
  };

  struct Slot {
    RequestId req = 0;
    std::uint32_t tag = 0;
    SlotState state = SlotState::kPending;
    std::unique_ptr<GsStreamSource> source;
    sim::Time drain_started_at = 0;
    std::uint64_t generated_at_close = 0;
    std::uint64_t delivered_at_close = 0;
  };

  void schedule_next_open();
  void open_one();
  void on_ready(std::size_t k, const Connection& c);
  void stop_stream(std::size_t k);
  void poll_drained(std::size_t k);
  std::uint64_t delivered(const Slot& s) const;

  Network& net_;
  ConnectionBroker& broker_;
  HubSet& hub_;
  ChurnOptions opt_;
  sim::Rng rng_;
  /// Shard 0's kernel: the clock/birth source for control-plane posts.
  sim::Simulator& sim_;
  sim::ControlPlane& ctrl_;
  std::deque<Slot> slots_;  ///< one per open request; stable references
  std::uint64_t closes_requested_ = 0;
};

}  // namespace mango::noc
