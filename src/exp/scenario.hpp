// Declarative simulation scenarios.
//
// A ScenarioSpec is a value describing one complete experiment: mesh
// size, BE traffic pattern and rate, GS connection set and explicit GS
// connections, duration and seed. run_scenario() turns a spec into numbers inside its own
// SimContext, touching no state outside that context — which is what
// lets the SweepRunner (sweep.hpp) execute many specs concurrently.
// SweepGrid expands cartesian products of spec dimensions, and a small
// registry of named presets ("ci-smoke", ...) gives CI and the CLI
// stable entry points.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <memory>

#include "noc/common/config.hpp"
#include "noc/network/fabric_plan.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/parallel.hpp"
#include "sim/time.hpp"

namespace mango::exp {

/// One explicit GS connection of a scenario: src -> dst, driven by its
/// own source options (period 0 = saturate).
struct GsConnection {
  noc::NodeId src, dst;
  noc::GsStreamSource::Options opt;
};

struct ScenarioSpec {
  std::string name = "scenario";
  /// Fabric: mesh/torus use width x height; ring and the built-in
  /// irregular graph use width * height nodes (so one grid axis sweeps
  /// equal-sized fabrics of every kind). Torus and ring need
  /// router.be_vcs = 2 for the dateline deadlock-avoidance classes.
  noc::TopologyKind topology = noc::TopologyKind::kMesh;
  std::uint16_t width = 4;
  std::uint16_t height = 4;
  /// Cores per router (kCMesh only, where 0 is the Topology's checked
  /// error; ignored — and left at 1 — on every other kind, so existing
  /// scenario names and reports are untouched).
  std::uint16_t concentration = 1;
  noc::RouterConfig router;
  /// Link depth, signalling and skew (NetworkConfig's fields and
  /// defaults). No flag or preset sets them and the report's spec
  /// section does not record them, so every report runs the defaults.
  unsigned link_pipeline_stages = 1;
  noc::LinkSignaling link_signaling = noc::LinkSignaling::kBundledData;
  sim::Time link_skew_ps = 0;

  // Best-effort traffic, one source per node (see start_pattern_be).
  noc::BePattern pattern = noc::BePattern::kUniform;
  noc::BePatternOptions pattern_opt;
  /// Mean per node; 0 = saturate, sim::kTimeNever = no BE traffic.
  sim::Time be_interarrival_ps = 10000;
  unsigned payload_words = 4;

  // Guaranteed-service connection set, each driven by a CBR source.
  noc::GsSetKind gs_set = noc::GsSetKind::kNone;
  noc::GsSetOptions gs_opt;
  sim::Time gs_period_ps = 4000;  ///< flit period per connection; 0 = saturate
  /// Explicit connections, opened after the gs_set in list order. They
  /// join the gs_* columns and the guarantee check (each at its own
  /// period), and ScenarioResult::connections reports them one by one.
  /// A connection that cannot be opened fails the run.
  std::vector<GsConnection> connections;

  // Runtime connection churn through the ConnectionBroker (the MANGO
  // open/close lifecycle, programmed with BE packets): Poisson open
  // requests with random pairs, exponential holding, one CBR stream per
  // admitted connection. 0 = disabled.
  sim::Time churn_interarrival_ps = 0;   ///< mean gap between open requests
  sim::Time churn_hold_ps = 300000;      ///< mean stream holding time
  sim::Time churn_gs_period_ps = 16000;  ///< CBR period of churn streams
  unsigned churn_queue = 8;              ///< broker queue depth (0 = reject)

  sim::Time duration_ps = 2000000;  ///< simulated horizon (2 us default)
  std::uint64_t seed = 1;

  /// Worker shards the fabric is partitioned across (NetworkConfig::
  /// shards; clamped to the node count). Sharding is an execution
  /// strategy, not a model parameter, so it is deliberately excluded
  /// from the scenario name and the report's spec section.
  unsigned shards = 1;
  /// Both must stay true (false is a ModelError, see NetworkConfig).
  /// Kept for perfbench/mango_bench.cpp until a benchmark change drops
  /// them.
  bool elide_windows = true;
  bool batched_handoff = true;
  /// Shard-engine tuning (NetworkConfig equivalents; shards >= 2 only).
  /// Execution strategy like `shards`, so these too stay out of the
  /// scenario name and the report's spec section — only the timing
  /// block surfaces them.
  std::uint32_t spin_us = sim::kDefaultBarrierSpinUs;
  bool force_spin = false;  ///< test hook: spin even when cores < shards

  /// The TopologySpec this scenario's network is built from.
  noc::TopologySpec topology_spec() const;
};

/// Everything measured from one scenario run. All fields derive from
/// the simulation alone (no wall-clock), so two runs of the same spec
/// are bit-identical regardless of scheduling or thread placement.
struct ScenarioStats {
  std::uint64_t events = 0;

  // BE aggregate over all node flows.
  std::uint64_t be_packets_generated = 0;
  std::uint64_t be_packets_delivered = 0;
  std::uint64_t be_injections_held = 0;  ///< backpressured injection attempts
  double be_throughput_pkts_per_ns = 0.0;
  double be_latency_p50_ns = 0.0;
  double be_latency_p95_ns = 0.0;
  double be_latency_p99_ns = 0.0;
  double be_latency_max_ns = 0.0;

  // GS aggregate over the connection set.
  std::uint64_t gs_connections = 0;
  std::uint64_t gs_flits_generated = 0;
  std::uint64_t gs_flits_delivered = 0;
  double gs_throughput_flits_per_ns = 0.0;
  double gs_latency_p50_ns = 0.0;
  double gs_latency_p99_ns = 0.0;
  double gs_latency_max_ns = 0.0;
  /// Worst per-connection delivery jitter (stddev of latency samples).
  double gs_jitter_max_ns = 0.0;

  /// GS connections whose delivered rate fell below the fair-share
  /// guarantee (min(offered, guarantee), 10% tolerance) or that saw
  /// sequence errors — the paper's per-connection service contract.
  /// Churn connections that lost flits or saw sequence errors count
  /// here too.
  std::uint64_t guarantee_violations = 0;
  std::uint64_t gs_seq_errors = 0;

  // Connection-churn lifecycle (ConnectionBroker) — all zero when the
  // scenario has churn disabled.
  std::uint64_t churn_requested = 0;
  std::uint64_t churn_admitted = 0;
  std::uint64_t churn_queued = 0;
  std::uint64_t churn_rejected = 0;
  std::uint64_t churn_ready = 0;
  std::uint64_t churn_closed = 0;
  std::uint64_t churn_retries = 0;
  double churn_blocking_probability = 0.0;
  double churn_setup_p50_ns = 0.0;
  double churn_setup_p99_ns = 0.0;
  double churn_setup_max_ns = 0.0;
  double churn_teardown_p50_ns = 0.0;
  double churn_teardown_p99_ns = 0.0;
  std::uint64_t churn_flits_generated = 0;
  std::uint64_t churn_flits_delivered = 0;

  // Network-wide link summary (NetworkReport).
  std::uint64_t total_flits_on_links = 0;
  double peak_link_utilization = 0.0;

  /// Exact equality — scenario runs are deterministic per spec, so two
  /// runs of the same spec must compare equal (sweep --repeat uses this
  /// to turn a nondeterministic rerun into a reported error).
  friend bool operator==(const ScenarioStats& a, const ScenarioStats& b);
  friend bool operator!=(const ScenarioStats& a, const ScenarioStats& b) {
    return !(a == b);
  }
};

/// The one ScenarioStats field list, in report order: (JSON name, member
/// pointer). operator== and the JSON stats columns both visit it, so a
/// new column is one entry here.
inline constexpr auto kScenarioStatsFields = std::make_tuple(
    std::pair{"events", &ScenarioStats::events},
    std::pair{"be_packets_generated", &ScenarioStats::be_packets_generated},
    std::pair{"be_packets_delivered", &ScenarioStats::be_packets_delivered},
    std::pair{"be_injections_held", &ScenarioStats::be_injections_held},
    std::pair{"be_throughput_pkts_per_ns",
              &ScenarioStats::be_throughput_pkts_per_ns},
    std::pair{"be_latency_p50_ns", &ScenarioStats::be_latency_p50_ns},
    std::pair{"be_latency_p95_ns", &ScenarioStats::be_latency_p95_ns},
    std::pair{"be_latency_p99_ns", &ScenarioStats::be_latency_p99_ns},
    std::pair{"be_latency_max_ns", &ScenarioStats::be_latency_max_ns},
    std::pair{"gs_connections", &ScenarioStats::gs_connections},
    std::pair{"gs_flits_generated", &ScenarioStats::gs_flits_generated},
    std::pair{"gs_flits_delivered", &ScenarioStats::gs_flits_delivered},
    std::pair{"gs_throughput_flits_per_ns",
              &ScenarioStats::gs_throughput_flits_per_ns},
    std::pair{"gs_latency_p50_ns", &ScenarioStats::gs_latency_p50_ns},
    std::pair{"gs_latency_p99_ns", &ScenarioStats::gs_latency_p99_ns},
    std::pair{"gs_latency_max_ns", &ScenarioStats::gs_latency_max_ns},
    std::pair{"gs_jitter_max_ns", &ScenarioStats::gs_jitter_max_ns},
    std::pair{"guarantee_violations", &ScenarioStats::guarantee_violations},
    std::pair{"gs_seq_errors", &ScenarioStats::gs_seq_errors},
    std::pair{"churn_requested", &ScenarioStats::churn_requested},
    std::pair{"churn_admitted", &ScenarioStats::churn_admitted},
    std::pair{"churn_queued", &ScenarioStats::churn_queued},
    std::pair{"churn_rejected", &ScenarioStats::churn_rejected},
    std::pair{"churn_ready", &ScenarioStats::churn_ready},
    std::pair{"churn_closed", &ScenarioStats::churn_closed},
    std::pair{"churn_retries", &ScenarioStats::churn_retries},
    std::pair{"churn_blocking_probability",
              &ScenarioStats::churn_blocking_probability},
    std::pair{"churn_setup_p50_ns", &ScenarioStats::churn_setup_p50_ns},
    std::pair{"churn_setup_p99_ns", &ScenarioStats::churn_setup_p99_ns},
    std::pair{"churn_setup_max_ns", &ScenarioStats::churn_setup_max_ns},
    std::pair{"churn_teardown_p50_ns", &ScenarioStats::churn_teardown_p50_ns},
    std::pair{"churn_teardown_p99_ns", &ScenarioStats::churn_teardown_p99_ns},
    std::pair{"churn_flits_generated", &ScenarioStats::churn_flits_generated},
    std::pair{"churn_flits_delivered", &ScenarioStats::churn_flits_delivered},
    std::pair{"total_flits_on_links", &ScenarioStats::total_flits_on_links},
    std::pair{"peak_link_utilization", &ScenarioStats::peak_link_utilization});

/// Every field is eight bytes: a member added without a table entry
/// fails here instead of silently dropping out of equality and reports.
static_assert(sizeof(ScenarioStats) ==
                  8 * std::tuple_size_v<decltype(kScenarioStatsFields)>,
              "every ScenarioStats field needs a kScenarioStatsFields entry");

/// Calls fn(name, member_pointer) for every ScenarioStats field in
/// report order.
template <typename Fn>
void for_each_stats_field(Fn&& fn) {
  std::apply([&fn](const auto&... f) { (fn(f.first, f.second), ...); },
             kScenarioStatsFields);
}

/// What one explicit connection delivered within the horizon.
struct ConnectionStats {
  std::uint64_t flits, seq_errors;
  double latency_min_ns, latency_p50_ns, latency_p99_ns, latency_max_ns;
};

struct ScenarioResult {
  ScenarioSpec spec;
  ScenarioStats stats;
  /// One row per spec.connections entry, in list order.
  std::vector<ConnectionStats> connections;
  std::string error;    ///< non-empty if the run threw (stats invalid)
  double wall_ms = 0.0; ///< host time; excluded from deterministic output
  /// Wall-time split of wall_ms: fabric construction (plan acquisition
  /// + component assembly) vs the event-loop run. Execution-side
  /// diagnostics like wall_ms: timing block only, never stats.
  double construct_ms = 0.0;
  double run_ms = 0.0;
  /// Portion of construct_ms spent acquiring the fabric plan (0 when a
  /// prebuilt plan was handed in), and whether it came from a cache.
  double plan_ms = 0.0;
  bool plan_cached = false;
  /// Shard-engine window counters (0 at shards = 1). Execution-side
  /// diagnostics like wall_ms: reported only in the timing block, never
  /// in the deterministic stats columns.
  std::uint64_t windows_run = 0;
  std::uint64_t windows_elided = 0;

  bool ok() const { return error.empty(); }
};

/// Execution-strategy options for run_scenario — how the fabric plan is
/// obtained, never what is simulated. Stats are byte-identical with a
/// shared plan and with an inline build.
struct RunOptions {
  /// Prebuilt plan for the spec's fabric (null: build inline). Must
  /// match fabric_plan_key(spec.topology_spec(), spec.router.be_vcs).
  std::shared_ptr<const noc::FabricPlan> plan;
  bool plan_cached = false;  ///< reporting: the plan was a cache hit
  double plan_ms = 0.0;      ///< reporting: caller-side acquisition time
};

/// Runs one scenario to its horizon in a fresh SimContext and collects
/// stats. Deterministic per spec; throws nothing (errors are captured).
ScenarioResult run_scenario(const ScenarioSpec& spec);
ScenarioResult run_scenario(const ScenarioSpec& spec, const RunOptions& opt);

/// The stats of a run that reached spec.duration_ps: sums over `hub`,
/// BE and GS latency quantiles selected exactly over the per-flow logs
/// of every shard hub (sim::quantile_of: allocation is one pointer per
/// log, whatever the number of samples or distinct latencies), the
/// per-endpoint guarantee check, churn lifecycle and link summary.
/// `gs_eps` is the gs_set's endpoints followed by one per
/// spec.connections entry, each checked at its own source's rate.
/// run_scenario calls it once at the horizon.
ScenarioStats collect_stats(const ScenarioSpec& spec, noc::Network& net,
                            const noc::HubSet& hub,
                            const std::vector<noc::GsSetEndpoint>& gs_eps,
                            const noc::ConnectionBroker* broker,
                            const noc::ChurnWorkload* churn);

/// Cartesian scenario grid. Empty dimension vectors fall back to the
/// base spec's value; expansion order (and thus scenario naming and
/// report order) is topologies > meshes > patterns > interarrivals >
/// gs_sets > churn_interarrivals > seeds.
struct SweepGrid {
  ScenarioSpec base;
  std::vector<noc::TopologyKind> topologies;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> meshes;
  std::vector<noc::BePattern> patterns;
  std::vector<sim::Time> interarrivals_ps;
  std::vector<noc::GsSetKind> gs_sets;
  /// Churn axis: mean open interarrival per scenario (0 = no churn).
  std::vector<sim::Time> churn_interarrivals_ps;
  std::vector<std::uint64_t> seeds;

  std::vector<ScenarioSpec> expand() const;
};

/// Registry of named preset grids (stable CI/CLI entry points).
std::vector<std::string> preset_names();
std::optional<SweepGrid> find_preset(const std::string& name);

}  // namespace mango::exp
