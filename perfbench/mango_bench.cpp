// mango_bench: the measured program behind perfbench/run.py.
//
//   mango_bench info
//   mango_bench run   WORKLOAD SEED
//   mango_bench trace WORKLOAD SEED SPANS_FILE
//
// `run` executes one repetition of a named workload through the
// product's own entry point, exp::run_scenario(spec, RunOptions{}) —
// cold plan built inline, one scenario, one process — and prints one
// JSON line: the host-time split, the simulated figures, the process's
// peak resident set and an FNV-1a digest of the scenario's stats JSON
// (SweepReport::stats_json, the bytes `mango_sweep --stable` writes).
//
// `trace` replays the same steps through each layer's public calls,
// times every call into a span kept in memory, writes the spans to
// SPANS_FILE at exit and prints the per-layer figures plus the replay's
// stats digest, which must equal the untraced run's.
//
// `info` prints the build identity. Every mode refuses to run from a
// Debug, unoptimized or sanitizer build: numbers from such a binary
// would not describe the product.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "model/timing.hpp"
#include "noc/network/connection_broker.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/fabric_plan.hpp"
#include "noc/network/network.hpp"
#include "noc/network/report.hpp"
#include "noc/network/routing.hpp"
#include "noc/network/topology.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"
#include "sim/stats.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MANGO_BENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MANGO_BENCH_SANITIZED 1
#endif

using namespace mango;

namespace {

using Clock = std::chrono::steady_clock;

/// Why this binary must not be measured, or "" when it may.
std::string build_defect() {
#ifndef NDEBUG
  return "assertions enabled (NDEBUG undefined): not a Release build";
#endif
#ifndef __OPTIMIZE__
  return "compiled without optimization";
#endif
#ifdef MANGO_BENCH_SANITIZED
  return "sanitizer build";
#endif
  return "";
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The scenario a workload runs. Specs go through SweepGrid::expand so
/// the scenario name (part of the digested stats JSON) is the one
/// mango_sweep gives the equivalent grid row; workloads.json records
/// that command line for each workload.
std::optional<exp::ScenarioSpec> workload_spec(const std::string& name,
                                               std::uint64_t seed) {
  exp::SweepGrid g;
  exp::ScenarioSpec& b = g.base;
  b.pattern = noc::BePattern::kUniform;
  b.seed = seed;
  if (name == "mesh32-be") {
    b.width = b.height = 32;
    b.be_interarrival_ps = 8000;
    b.gs_set = noc::GsSetKind::kRing;
    b.gs_period_ps = 8000;
    b.duration_ps = 400000;
  } else if (name == "mesh8-gs" || name == "mesh8-shards2") {
    b.width = b.height = 8;
    b.be_interarrival_ps = 32000;
    b.gs_set = noc::GsSetKind::kRing;
    b.gs_period_ps = 0;
    b.duration_ps = 20000000;
    b.shards = name == "mesh8-shards2" ? 2 : 1;
  } else if (name == "torus8-churn") {
    b.topology = noc::TopologyKind::kTorus;
    b.width = b.height = 8;
    b.router.be_vcs = 2;
    b.be_interarrival_ps = 48000;
    b.gs_set = noc::GsSetKind::kRing;
    b.gs_period_ps = 16000;
    b.churn_interarrival_ps = 25000;
    b.churn_hold_ps = 250000;
    b.churn_gs_period_ps = 16000;
    b.churn_queue = 8;
    b.duration_ps = 40000000;
  } else if (name == "smoke") {
    b.width = b.height = 4;
    b.be_interarrival_ps = 8000;
    b.gs_set = noc::GsSetKind::kRing;
    b.gs_period_ps = 8000;
    b.churn_interarrival_ps = 25000;
    b.churn_hold_ps = 250000;
    b.churn_gs_period_ps = 16000;
    b.churn_queue = 8;
    b.duration_ps = 2000000;
  } else {
    return std::nullopt;
  }
  return g.expand().front();
}

/// The stats JSON mango_sweep --stable writes for this one scenario.
std::string stats_json(const exp::ScenarioSpec& spec,
                       const exp::ScenarioStats& stats) {
  exp::SweepReport rep;
  exp::ScenarioResult r;
  r.spec = spec;
  r.stats = stats;
  rep.results.push_back(std::move(r));
  return rep.stats_json();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Bytes the allocator has handed out (all arenas, mmapped blocks too).
double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// This process's peak resident set. VmHWM, not getrusage's ru_maxrss:
/// the latter survives execve, so it would report the launching
/// interpreter's footprint whenever that is the larger.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Timed repetition
// ---------------------------------------------------------------------------

int cmd_run(const exp::ScenarioSpec& spec) {
  const exp::ScenarioResult r = exp::run_scenario(spec, exp::RunOptions{});
  const exp::ScenarioStats& st = r.stats;
  std::string json;
  noc::JsonWriter w(&json);
  w.begin_object();
  w.kv("ok", r.ok());
  w.kv("error", r.error);
  w.kv("construct_ms", r.construct_ms);
  w.kv("run_ms", r.run_ms);
  w.kv("wall_ms", r.wall_ms);
  w.kv("events", st.events);
  w.kv("gs_latency_p99_ns", st.gs_latency_p99_ns);
  w.kv("be_latency_p99_ns", st.be_latency_p99_ns);
  w.kv("gs_connections", st.gs_connections);
  w.kv("churn_requested", st.churn_requested);
  w.kv("guarantee_violations", st.guarantee_violations);
  w.kv("gs_seq_errors", st.gs_seq_errors);
  w.kv("digest", hex(fnv1a(stats_json(spec, st))));
  w.kv("peak_rss_mb", peak_rss_mb());
  w.end_object();
  std::printf("%s\n", json.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

/// In-memory span log: (name, start, end, parent), nanoseconds from the
/// tracer's origin. Written out once, after the replay.
class Tracer {
 public:
  int begin(const std::string& name, int parent) {
    spans_.push_back(Span{name, parent, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Ends span `id` and returns its duration in milliseconds.
  double end(int id) {
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                   i, s.name.c_str(), s.parent, s.start_ns, s.end_ns,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    long long start_ns;
    long long end_ns;
  };
  long long now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

std::uint64_t sum_counter(noc::Network& net, const std::string& name) {
  std::uint64_t n = 0;
  for (unsigned s = 0; s < net.shard_count(); ++s) {
    n += net.shard_ctx(s).stats().counter_value(name);
  }
  return n;
}

/// Sink-side figures of the replay (what the hub held until the report).
struct SinkCounts {
  std::uint64_t gs_samples = 0;
  std::uint64_t be_samples = 0;
};

/// exp::run_scenario's stats collection, step for step, through public
/// calls (its own collect_stats has internal linkage). The link summary
/// comes in from the separately timed NetworkReport::collect. Any drift
/// from the product's collection shows as a digest mismatch against the
/// untraced run.
exp::ScenarioStats collect_stats(const exp::ScenarioSpec& spec,
                                 noc::Network& net, const noc::HubSet& hub,
                                 const std::vector<noc::GsSetEndpoint>& gs_eps,
                                 const noc::ConnectionBroker* broker,
                                 const noc::ChurnWorkload* churn,
                                 SinkCounts& sink) {
  exp::ScenarioStats st;
  st.events = net.events_dispatched();
  const double duration_ns = sim::to_ns(spec.duration_ps);

  st.be_packets_generated = sum_counter(net, "traffic.be_packets_generated");
  sim::Histogram be_lat;
  std::vector<double> samples;
  const auto be_end =
      noc::kBeTagBase +
      static_cast<std::uint32_t>(net.topology().spec().core_count());
  for (const std::uint32_t tag : hub.tags()) {
    if (tag < noc::kBeTagBase || tag >= be_end) continue;
    st.be_packets_delivered += hub.flow_packets(tag);
    samples.clear();
    hub.append_latency_samples(tag, samples);
    for (const double s : samples) be_lat.add(s);
  }
  if (duration_ns > 0) {
    st.be_throughput_pkts_per_ns =
        static_cast<double>(st.be_packets_delivered) / duration_ns;
  }
  st.be_latency_p50_ns = be_lat.p50();
  st.be_latency_p95_ns = be_lat.p95();
  st.be_latency_p99_ns = be_lat.p99();
  st.be_latency_max_ns = be_lat.max();

  st.gs_connections = gs_eps.size();
  st.gs_flits_generated = sum_counter(net, "traffic.gs_flits_generated");
  const double guarantee = model::fair_share_guarantee_flits_per_ns(
      spec.router.corner, spec.router.vcs_per_port,
      net.config().link_pipeline_stages);
  const double offered = spec.gs_period_ps == 0
                             ? guarantee
                             : 1000.0 / static_cast<double>(spec.gs_period_ps);
  const double expected_rate = std::min(offered, guarantee);
  sim::Histogram gs_lat;
  for (const noc::GsSetEndpoint& ep : gs_eps) {
    if (!hub.has_flow(ep.tag)) {
      ++st.guarantee_violations;
      continue;
    }
    const std::uint64_t flits = hub.flow_flits(ep.tag);
    const std::uint64_t seq_errors = hub.flow_seq_errors(ep.tag);
    st.gs_flits_delivered += flits;
    st.gs_seq_errors += seq_errors;
    samples.clear();
    hub.append_latency_samples(ep.tag, samples);
    sim::Accumulator acc;
    for (const double s : samples) {
      gs_lat.add(s);
      acc.add(s);
    }
    st.gs_jitter_max_ns = std::max(st.gs_jitter_max_ns, acc.stddev());
    const double expected_count = expected_rate * duration_ns;
    const bool shortfall = expected_count >= 16.0 &&
                           static_cast<double>(flits) < 0.9 * expected_count;
    if (shortfall || seq_errors > 0) ++st.guarantee_violations;
  }
  if (duration_ns > 0) {
    st.gs_throughput_flits_per_ns =
        static_cast<double>(st.gs_flits_delivered) / duration_ns;
  }
  st.gs_latency_p50_ns = gs_lat.p50();
  st.gs_latency_p99_ns = gs_lat.p99();
  st.gs_latency_max_ns = gs_lat.max();
  sink.gs_samples = gs_lat.count();
  sink.be_samples = be_lat.count();

  if (broker != nullptr) {
    const noc::ConnectionLifecycleReport lc =
        noc::ConnectionLifecycleReport::from(*broker);
    st.churn_requested = lc.requested;
    st.churn_admitted = lc.admitted;
    st.churn_queued = lc.queued;
    st.churn_rejected = lc.rejected;
    st.churn_ready = lc.ready;
    st.churn_closed = lc.closed;
    st.churn_retries = lc.retries;
    st.churn_blocking_probability = lc.blocking_probability;
    st.churn_setup_p50_ns = lc.setup_p50_ns;
    st.churn_setup_p99_ns = lc.setup_p99_ns;
    st.churn_setup_max_ns = lc.setup_max_ns;
    st.churn_teardown_p50_ns = lc.teardown_p50_ns;
    st.churn_teardown_p99_ns = lc.teardown_p99_ns;
  }
  if (churn != nullptr) {
    const noc::ChurnWorkload::Totals t = churn->finalize(spec.duration_ps);
    st.churn_flits_generated = t.flits_generated;
    st.churn_flits_delivered = t.flits_delivered;
    st.gs_flits_generated -= t.flits_generated;
    st.gs_seq_errors += t.seq_errors;
    st.guarantee_violations += t.violations;
  }
  return st;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

constexpr int kLoopSlices = 10;

int cmd_trace(const std::string& workload, const exp::ScenarioSpec& spec,
              const std::string& spans_path) {
  Tracer tr;
  std::vector<std::pair<std::string, double>> m;  // per-layer metrics
  const auto put = [&m](const char* name, double v) {
    m.emplace_back(name, v);
  };
  const auto t0 = Clock::now();

  // --- setup: spec to first event ---
  const int setup = tr.begin("setup", -1);
  const noc::TopologySpec tspec = spec.topology_spec();
  {
    // The cold plan build, call by call (FabricPlan::build's steps).
    int s = tr.begin("plan.topology", setup);
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(tspec);
    put("plan.topology_ms", tr.end(s));
    s = tr.begin("plan.routing", setup);
    const std::unique_ptr<noc::RoutingAlgorithm> routing =
        noc::make_routing(*topo);
    put("plan.routing_ms", tr.end(s));
    s = tr.begin("plan.route_table", setup);
    const noc::RouteTable table(*topo, *routing, 1);
    put("plan.route_table_ms", tr.end(s));
    s = tr.begin("plan.cdg", setup);
    const noc::BeVcClassMap vc_map = routing->vc_class_map();
    const noc::DeadlockCheck check =
        table.dense() ? noc::check_deadlock_freedom(*topo, table, vc_map,
                                                    spec.router.be_vcs, 1)
                      : noc::check_deadlock_freedom(*topo, *routing,
                                                    spec.router.be_vcs);
    put("plan.cdg_ms", tr.end(s));
    s = tr.begin("plan.partition", setup);
    const std::vector<std::uint64_t> weights = noc::partition_weights(*topo);
    put("plan.partition_ms", tr.end(s));
    if (!check.acyclic || weights.size() != topo->node_count()) {
      std::fprintf(stderr, "mango_bench: plan decomposition failed\n");
      return 1;
    }
  }
  // The plan the network is assembled from (the same steps once more,
  // as one call), then warm assembly against it.
  const double heap0 = heap_mb();
  int s = tr.begin("plan.build", setup);
  const std::shared_ptr<const noc::FabricPlan> plan =
      noc::FabricPlan::build(tspec, spec.router.be_vcs, 1);
  tr.end(s);
  put("plan.heap_mb", heap_mb() - heap0);

  auto ctx = std::make_unique<sim::SimContext>(spec.seed);
  noc::NetworkConfig net_cfg;
  net_cfg.topology = tspec;
  net_cfg.router = spec.router;
  net_cfg.shards = spec.shards;
  net_cfg.elide_windows = spec.elide_windows;
  net_cfg.batched_handoff = spec.batched_handoff;
  net_cfg.spin_us = spec.spin_us;
  net_cfg.force_spin = spec.force_spin;
  net_cfg.plan = plan;
  s = tr.begin("net.assemble", setup);
  auto net = std::make_unique<noc::Network>(*ctx, net_cfg);
  put("net.assemble_ms", tr.end(s));
  put("net.arena_mb",
      static_cast<double>(net->arena_bytes()) / (1024.0 * 1024.0));

  s = tr.begin("hub.attach", setup);
  auto hub = std::make_unique<noc::HubSet>(net->shard_count());
  hub->set_horizon(spec.duration_ps);
  noc::attach_hub(*net, *hub);
  tr.end(s);

  s = tr.begin("conn.open_set", setup);
  auto mgr = std::make_unique<noc::ConnectionManager>(*net, net->node_at(0));
  const std::vector<noc::GsSetEndpoint> gs_eps =
      noc::open_gs_set(*net, *mgr, spec.gs_set, spec.gs_opt);
  put("conn.open_set_ms", tr.end(s));
  put("conn.gs_connections", gs_eps.size());

  s = tr.begin("traffic.start", setup);
  noc::GsStreamSource::Options gs_opt;
  gs_opt.period_ps = spec.gs_period_ps;
  auto gs_sources = noc::start_gs_set(*net, gs_eps, gs_opt);
  auto be_sources =
      noc::start_pattern_be(*net, spec.pattern, spec.pattern_opt,
                            spec.be_interarrival_ps, spec.payload_words,
                            spec.seed);
  std::unique_ptr<noc::ConnectionBroker> broker;
  std::unique_ptr<noc::ChurnWorkload> churn;
  if (spec.churn_interarrival_ps > 0) {
    noc::BrokerConfig bc;
    bc.max_queue = spec.churn_queue;
    broker = std::make_unique<noc::ConnectionBroker>(*net, *mgr, bc);
    noc::ChurnOptions copt;
    copt.mean_open_interarrival_ps = spec.churn_interarrival_ps;
    copt.mean_hold_ps = spec.churn_hold_ps;
    copt.gs_period_ps = spec.churn_gs_period_ps;
    copt.seed = spec.seed;
    churn = std::make_unique<noc::ChurnWorkload>(*net, *broker, *hub, copt);
    churn->start();
  }
  put("traffic.start_ms", tr.end(s));
  const double setup_ms = tr.end(setup);

  // --- event loop, cut into equal simulated-time slices ---
  const int loop = tr.begin("loop", -1);
  const double heap_before_loop = heap_mb();
  std::vector<double> ns_per_event;
  std::uint64_t prev_events = net->events_dispatched();
  for (int k = 1; k <= kLoopSlices; ++k) {
    const sim::Time t_k = spec.duration_ps * static_cast<sim::Time>(k) /
                          static_cast<sim::Time>(kLoopSlices);
    const int sl = tr.begin("loop.slice." + std::to_string(k - 1), loop);
    net->run_until(t_k);
    const double slice_ms = tr.end(sl);
    const std::uint64_t events = net->events_dispatched();
    ns_per_event.push_back(
        ratio(slice_ms * 1e6, static_cast<double>(events - prev_events)));
    prev_events = events;
  }
  put("loop.heap_growth_mb", heap_mb() - heap_before_loop);
  const double loop_ms = tr.end(loop);
  const std::uint64_t loop_events = net->events_dispatched();
  put("loop.events", loop_events);
  put("loop.events_per_sim_ns", ratio(static_cast<double>(loop_events),
                                      sim::to_ns(spec.duration_ps)));
  put("loop.ns_per_event_first", ns_per_event.front());
  put("loop.ns_per_event_steady",
      median(std::vector<double>(ns_per_event.begin() + 1,
                                 ns_per_event.end())));

  // --- report: hub merges + quantiles, network counters, stats JSON ---
  const int report = tr.begin("report", -1);
  s = tr.begin("report.collect", report);
  SinkCounts sink;
  exp::ScenarioStats st = collect_stats(spec, *net, *hub, gs_eps,
                                        broker.get(), churn.get(), sink);
  put("report.collect_ms", tr.end(s));
  s = tr.begin("report.network", report);
  const noc::NetworkReport rep =
      noc::NetworkReport::collect(*net, spec.duration_ps);
  put("report.network_ms", tr.end(s));
  st.total_flits_on_links = rep.total_flits_on_links;
  st.peak_link_utilization = rep.peak_link_utilization;
  std::uint64_t held = 0;
  for (const auto& src : be_sources) held += src->offered_but_held();
  st.be_injections_held = held;
  s = tr.begin("report.json", report);
  const std::string json = stats_json(spec, st);
  put("report.json_ms", tr.end(s));
  const double report_ms = tr.end(report);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // Counters read before teardown.
  std::uint64_t switch_flits = 0, arb_grants = 0, be_flits = 0, vc_ctl = 0;
  for (const noc::RouterReport& r : rep.routers) {
    switch_flits += r.switch_flits;
    arb_grants += r.arb_grants;
    be_flits += r.be_flits;
    vc_ctl += r.vc_control_signals;
  }
  std::vector<double> shard_events;
  for (unsigned k = 0; k < net->shard_count(); ++k) {
    shard_events.push_back(
        static_cast<double>(net->shard_ctx(k).sim().events_dispatched()));
  }
  const double shard_max =
      *std::max_element(shard_events.begin(), shard_events.end());
  double shard_sum = 0.0;
  for (const double e : shard_events) shard_sum += e;
  const std::uint64_t windows_run = net->windows_run();
  const std::uint64_t windows_elided = net->windows_elided();

  // --- teardown, in run_scenario's (reverse-declaration) order ---
  s = tr.begin("teardown", -1);
  churn.reset();
  broker.reset();
  be_sources.clear();
  gs_sources.clear();
  mgr.reset();
  hub.reset();
  net.reset();
  ctx.reset();
  const double teardown_ms = tr.end(s);

  put("churn.requested", st.churn_requested);
  put("churn.admitted", st.churn_admitted);
  put("churn.rejected", st.churn_rejected);
  put("churn.closed", st.churn_closed);
  put("churn.admit_ratio",
      ratio(static_cast<double>(st.churn_admitted),
            static_cast<double>(st.churn_requested)));
  put("churn.setup_p99_ns", st.churn_setup_p99_ns);
  put("traffic.be_generated", st.be_packets_generated);
  put("traffic.gs_generated",
      st.gs_flits_generated + st.churn_flits_generated);
  put("traffic.be_held_ratio",
      ratio(static_cast<double>(st.be_injections_held),
            static_cast<double>(st.be_injections_held +
                                st.be_packets_generated)));
  put("router.switch_flits", switch_flits);
  put("router.arb_grants", arb_grants);
  put("router.be_flits", be_flits);
  put("router.vc_control_signals", vc_ctl);
  put("link.flits", rep.total_flits_on_links);
  put("link.peak_utilization", rep.peak_link_utilization);
  put("loop.events_per_link_flit",
      ratio(static_cast<double>(loop_events),
            static_cast<double>(rep.total_flits_on_links)));
  put("sink.gs_samples", sink.gs_samples);
  put("sink.be_samples", sink.be_samples);
  put("shard.windows_run", windows_run);
  put("shard.windows_elided", windows_elided);
  put("shard.elided_ratio",
      ratio(static_cast<double>(windows_elided),
            static_cast<double>(windows_run + windows_elided)));
  put("shard.event_imbalance",
      ratio(shard_max,
            shard_sum / static_cast<double>(shard_events.size())));

  if (!tr.write(spans_path, workload, spec.seed)) {
    std::fprintf(stderr, "mango_bench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::string out;
  noc::JsonWriter w(&out);
  w.begin_object();
  w.kv("digest", hex(fnv1a(json)));
  w.kv("events", st.events);
  w.kv("guarantee_violations", st.guarantee_violations);
  w.kv("gs_seq_errors", st.gs_seq_errors);
  w.kv("gs_connections", st.gs_connections);
  w.kv("churn_requested", st.churn_requested);
  w.kv("setup_ms", setup_ms);
  w.kv("loop_ms", loop_ms);
  w.kv("report_ms", report_ms);
  w.kv("wall_ms", wall_ms);
  w.kv("teardown_ms", teardown_ms);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, v] : m) w.kv(name, v);
  w.end_object();
  w.end_object();
  std::printf("%s\n", out.c_str());
  return 0;
}

int cmd_info() {
  std::string out;
  noc::JsonWriter w(&out);
  w.begin_object();
  w.kv("compiler", std::string("g++-compatible ") + __VERSION__);
  w.kv("defect", build_defect());
  w.end_object();
  std::printf("%s\n", out.c_str());
  return 0;
}

int usage() {
  std::fputs(
      "usage: mango_bench info\n"
      "       mango_bench run WORKLOAD SEED\n"
      "       mango_bench trace WORKLOAD SEED SPANS_FILE\n"
      "workloads: mesh32-be mesh8-gs torus8-churn mesh8-shards2 smoke\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "info") return cmd_info();
  const std::string defect = build_defect();
  if (!defect.empty()) {
    std::fprintf(stderr, "mango_bench: refusing to measure: %s\n",
                 defect.c_str());
    return 3;
  }
  if (argc < 4) return usage();
  const std::string workload = argv[2];
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(argv[3], &end, 10);
  if (end == argv[3] || *end != '\0') return usage();
  const std::optional<exp::ScenarioSpec> spec = workload_spec(workload, seed);
  if (!spec) return usage();
  if (cmd == "run" && argc == 4) return cmd_run(*spec);
  if (cmd == "trace" && argc == 5) return cmd_trace(workload, *spec, argv[4]);
  return usage();
}
