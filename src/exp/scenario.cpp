#include "exp/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "model/timing.hpp"
#include "noc/network/connection_broker.hpp"
#include "noc/network/connection_manager.hpp"
#include "sim/assert.hpp"
#include "noc/network/network.hpp"
#include "noc/network/report.hpp"
#include "sim/context.hpp"
#include "sim/stats.hpp"

namespace mango::exp {

namespace {

/// Sums a shard-context counter over every shard (generators bump the
/// registry of the shard their NA lives in).
std::uint64_t sum_counter(noc::Network& net, const std::string& name) {
  std::uint64_t n = 0;
  for (unsigned s = 0; s < net.shard_count(); ++s) {
    n += net.shard_ctx(s).stats().counter_value(name);
  }
  return n;
}

/// Appends the latency log of `tag` from every shard hub that holds it.
void append_logs(const noc::HubSet& hub, std::uint32_t tag,
                 std::vector<const sim::LatencyLog*>& out) {
  for (unsigned s = 0; s < hub.size(); ++s) {
    if (const noc::FlowStats* f = hub.shard(s).find_flow(tag)) {
      out.push_back(&f->latency_ns);
    }
  }
}

}  // namespace

ScenarioStats collect_stats(const ScenarioSpec& spec, noc::Network& net,
                            const noc::HubSet& hub,
                            const std::vector<noc::GsSetEndpoint>& gs_eps,
                            const noc::ConnectionBroker* broker,
                            const noc::ChurnWorkload* churn) {
  ScenarioStats st;
  st.events = net.events_dispatched();
  const double duration_ns = sim::to_ns(spec.duration_ps);

  // --- BE aggregate ---
  st.be_packets_generated = sum_counter(net, "traffic.be_packets_generated");
  // Latency aggregates are exact selections over the per-flow logs of
  // every shard hub (sim::quantile_of), so their memory is one pointer
  // per log whatever the number of distinct latencies.
  std::vector<const sim::LatencyLog*> be_logs;
  const auto be_base = noc::kBeTagBase;
  // One flow per core: concentrated meshes run spec().concentration BE
  // sources per router (flow = node * k + core).
  const auto be_end =
      noc::kBeTagBase +
      static_cast<std::uint32_t>(net.topology().spec().core_count());
  for (const std::uint32_t tag : hub.tags()) {
    if (tag < be_base || tag >= be_end) continue;
    st.be_packets_delivered += hub.flow_packets(tag);
    append_logs(hub, tag, be_logs);
  }
  if (duration_ns > 0) {
    st.be_throughput_pkts_per_ns =
        static_cast<double>(st.be_packets_delivered) / duration_ns;
  }
  st.be_latency_p50_ns = sim::quantile_of(be_logs, 0.50);
  st.be_latency_p95_ns = sim::quantile_of(be_logs, 0.95);
  st.be_latency_p99_ns = sim::quantile_of(be_logs, 0.99);
  st.be_latency_max_ns = sim::quantile_of(be_logs, 1.0);

  // --- GS aggregate + guarantee check ---
  st.gs_connections = gs_eps.size();
  st.gs_flits_generated = sum_counter(net, "traffic.gs_flits_generated");
  const double guarantee = model::fair_share_guarantee_flits_per_ns(
      spec.router.corner, spec.router.vcs_per_port,
      net.config().link_pipeline_stages);
  std::vector<const sim::LatencyLog*> gs_logs;
  // The set's endpoints come first; the explicit connections follow.
  MANGO_ASSERT(gs_eps.size() >= spec.connections.size(),
               "fewer GS endpoints than explicit connections");
  const std::size_t set_size = gs_eps.size() - spec.connections.size();
  for (std::size_t i = 0; i < gs_eps.size(); ++i) {
    const noc::GsSetEndpoint& ep = gs_eps[i];
    if (!hub.has_flow(ep.tag)) {
      // Nothing delivered on an open, driven connection at all.
      ++st.guarantee_violations;
      continue;
    }
    // A GS flow delivers entirely at its destination NA, so exactly one
    // shard hub contributes — the log order (and thus the jitter
    // accumulator) is the single-kernel delivery order.
    const std::uint64_t flits = hub.flow_flits(ep.tag);
    const std::uint64_t seq_errors = hub.flow_seq_errors(ep.tag);
    st.gs_flits_delivered += flits;
    st.gs_seq_errors += seq_errors;
    append_logs(hub, ep.tag, gs_logs);
    sim::Accumulator acc;
    hub.for_each_latency(ep.tag,
                         [&](sim::Time ps) { acc.add(sim::to_ns(ps)); });
    st.gs_jitter_max_ns = std::max(st.gs_jitter_max_ns, acc.stddev());
    // Rate contract: over the horizon the connection must deliver at
    // least min(offered, guarantee) at its own source's period (and no
    // more than its flit budget), with 10% tolerance for fill and drain
    // edges. Only meaningful when the horizon spans many flits.
    noc::GsStreamSource::Options o;
    o.period_ps = spec.gs_period_ps;
    if (i >= set_size) o = spec.connections[i - set_size].opt;
    const double offered =
        o.period_ps == 0 ? guarantee
                         : 1000.0 / static_cast<double>(o.period_ps);
    double expected_count = std::min(offered, guarantee) * duration_ns;
    if (o.max_flits > 0) {
      expected_count =
          std::min(expected_count, static_cast<double>(o.max_flits));
    }
    const bool shortfall =
        expected_count >= 16.0 &&
        static_cast<double>(flits) < 0.9 * expected_count;
    if (shortfall || seq_errors > 0) ++st.guarantee_violations;
  }
  if (duration_ns > 0) {
    st.gs_throughput_flits_per_ns =
        static_cast<double>(st.gs_flits_delivered) / duration_ns;
  }
  st.gs_latency_p50_ns = sim::quantile_of(gs_logs, 0.50);
  st.gs_latency_p99_ns = sim::quantile_of(gs_logs, 0.99);
  st.gs_latency_max_ns = sim::quantile_of(gs_logs, 1.0);

  // --- connection churn (broker lifecycle + delivery contract) ---
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
    // Churn streams share the "traffic.gs_flits_generated" counter with
    // the static GS set; keep the gs_* columns about the static set only
    // (churn traffic has its own columns) so their generated/delivered
    // ratio doesn't report phantom loss.
    MANGO_ASSERT(st.gs_flits_generated >= t.flits_generated,
                 "churn generated more GS flits than the global counter");
    st.gs_flits_generated -= t.flits_generated;
    st.gs_seq_errors += t.seq_errors;
    st.guarantee_violations += t.violations;
  }

  // --- link summary ---
  const noc::NetworkReport rep =
      noc::NetworkReport::collect(net, spec.duration_ps);
  st.total_flits_on_links = rep.total_flits_on_links;
  st.peak_link_utilization = rep.peak_link_utilization;
  return st;
}

bool operator==(const ScenarioStats& a, const ScenarioStats& b) {
  bool equal = true;
  for_each_stats_field([&](const char*, auto member) {
    equal = equal && a.*member == b.*member;
  });
  return equal;
}

noc::TopologySpec ScenarioSpec::topology_spec() const {
  const std::uint32_t nodes32 =
      static_cast<std::uint32_t>(width) * height;
  switch (topology) {
    case noc::TopologyKind::kMesh:
      return noc::TopologySpec::mesh(width, height);
    case noc::TopologyKind::kTorus:
      return noc::TopologySpec::torus(width, height);
    case noc::TopologyKind::kCMesh:
      return noc::TopologySpec::cmesh(width, height, concentration);
    case noc::TopologyKind::kRing:
    case noc::TopologyKind::kGraph: {
      // Node labels are 16-bit: reject instead of silently truncating
      // width*height into a wrong-size fabric.
      MANGO_ASSERT(nodes32 <= 0xFFFF,
                   "ring/graph fabrics support at most 65535 nodes (got " +
                       std::to_string(nodes32) + ")");
      const auto nodes = static_cast<std::uint16_t>(nodes32);
      return topology == noc::TopologyKind::kRing
                 ? noc::TopologySpec::ring(nodes)
                 : noc::TopologySpec::irregular(
                       noc::GraphSpec::irregular(nodes));
    }
  }
  return noc::TopologySpec::mesh(width, height);  // unreachable
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  return run_scenario(spec, RunOptions{});
}

ScenarioResult run_scenario(const ScenarioSpec& spec, const RunOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  ScenarioResult result;
  result.spec = spec;
  // Plan acquisition the caller already paid for (cache lookup/build,
  // outside our clock) counts toward this scenario's construction and
  // wall time. Inline plan builds happen inside the clock and must not
  // be added twice — for those, plan_ms is informational only.
  const double caller_plan_ms = opt.plan ? opt.plan_ms : 0.0;
  result.plan_ms = caller_plan_ms;
  result.plan_cached = opt.plan != nullptr && opt.plan_cached;
  // Wall-time split markers: construction ends (and the run begins) at
  // run_until; both are set even when the run throws mid-way.
  auto t_run = t0;
  try {
    sim::SimContext ctx(spec.seed);
    noc::NetworkConfig net_cfg;
    net_cfg.topology = spec.topology_spec();
    net_cfg.router = spec.router;
    net_cfg.link_pipeline_stages = spec.link_pipeline_stages;
    net_cfg.link_signaling = spec.link_signaling;
    net_cfg.link_skew_ps = spec.link_skew_ps;
    net_cfg.shards = spec.shards;
    net_cfg.elide_windows = spec.elide_windows;
    net_cfg.batched_handoff = spec.batched_handoff;
    net_cfg.spin_us = spec.spin_us;
    net_cfg.force_spin = spec.force_spin;
    net_cfg.plan = opt.plan;
    noc::Network net(ctx, net_cfg);
    if (!opt.plan) result.plan_ms = net.plan().build_ms();
    noc::HubSet hub(net.shard_count());
    hub.set_horizon(spec.duration_ps);
    noc::attach_hub(net, hub);

    noc::ConnectionManager mgr(net, net.node_at(0));
    std::vector<noc::GsSetEndpoint> gs_eps =
        noc::open_gs_set(net, mgr, spec.gs_set, spec.gs_opt);
    noc::GsStreamSource::Options gs_opt;
    gs_opt.period_ps = spec.gs_period_ps;
    auto gs_sources = noc::start_gs_set(net, gs_eps, gs_opt);
    // Explicit connections continue the set's tag numbering.
    for (const GsConnection& c : spec.connections) {
      const noc::Connection& conn = mgr.open_direct(c.src, c.dst);
      gs_eps.push_back({conn.id, c.src, c.dst, conn.src_iface,
                        noc::kGsTagBase +
                            static_cast<std::uint32_t>(gs_eps.size())});
      gs_sources.push_back(std::make_unique<noc::GsStreamSource>(
          net.na(c.src), conn.src_iface, gs_eps.back().tag, c.opt));
      gs_sources.back()->start();
    }
    const auto be_sources = noc::start_pattern_be(
        net, spec.pattern, spec.pattern_opt, spec.be_interarrival_ps,
        spec.payload_words, spec.seed);

    // Runtime connection churn: broker constructed after the static GS
    // set so its admission ledger is seeded with those reservations.
    std::unique_ptr<noc::ConnectionBroker> broker;
    std::unique_ptr<noc::ChurnWorkload> churn;
    if (spec.churn_interarrival_ps > 0) {
      noc::BrokerConfig bc;
      bc.max_queue = spec.churn_queue;
      broker = std::make_unique<noc::ConnectionBroker>(net, mgr, bc);
      noc::ChurnOptions copt;
      copt.mean_open_interarrival_ps = spec.churn_interarrival_ps;
      copt.mean_hold_ps = spec.churn_hold_ps;
      copt.gs_period_ps = spec.churn_gs_period_ps;
      copt.seed = spec.seed;
      churn = std::make_unique<noc::ChurnWorkload>(net, *broker, hub, copt);
      churn->start();
    }

    t_run = std::chrono::steady_clock::now();
    net.run_until(spec.duration_ps);
    result.stats =
        collect_stats(spec, net, hub, gs_eps, broker.get(), churn.get());
    for (const auto& s : be_sources) {
      result.stats.be_injections_held += s->offered_but_held();
    }
    for (std::size_t i = gs_eps.size() - spec.connections.size();
         i < gs_eps.size(); ++i) {
      const std::uint32_t tag = gs_eps[i].tag;
      std::vector<const sim::LatencyLog*> logs;
      append_logs(hub, tag, logs);
      result.connections.push_back(
          {hub.flow_flits(tag), hub.flow_seq_errors(tag),
           sim::quantile_of(logs, 0.0), sim::quantile_of(logs, 0.50),
           sim::quantile_of(logs, 0.99), sim::quantile_of(logs, 1.0)});
    }
    result.windows_run = net.windows_run();
    result.windows_elided = net.windows_elided();
  } catch (const std::exception& e) {
    result.error = e.what();
    if (t_run == t0) t_run = std::chrono::steady_clock::now();
  }
  const auto t_end = std::chrono::steady_clock::now();
  // The split: construction is caller-side plan acquisition plus
  // everything up to run_until; the run is the event loop plus stat
  // collection. wall_ms = construct_ms + run_ms by construction.
  result.construct_ms =
      caller_plan_ms +
      std::chrono::duration<double, std::milli>(t_run - t0).count();
  result.run_ms =
      std::chrono::duration<double, std::milli>(t_end - t_run).count();
  result.wall_ms =
      caller_plan_ms +
      std::chrono::duration<double, std::milli>(t_end - t0).count();
  return result;
}

namespace {

/// `axis`, or the base spec's value alone when the axis is empty.
template <class T>
std::vector<T> or_base(const std::vector<T>& axis, const T& base) {
  return axis.empty() ? std::vector<T>{base} : axis;
}

}  // namespace

std::vector<ScenarioSpec> SweepGrid::expand() const {
  const auto topologies_v = or_base(topologies, base.topology);
  const auto meshes_v = or_base(meshes, std::pair{base.width, base.height});
  const auto patterns_v = or_base(patterns, base.pattern);
  const auto ia_v = or_base(interarrivals_ps, base.be_interarrival_ps);
  const auto gs_v = or_base(gs_sets, base.gs_set);
  const auto churn_v =
      or_base(churn_interarrivals_ps, base.churn_interarrival_ps);
  const auto seeds_v = or_base(seeds, base.seed);

  std::vector<ScenarioSpec> specs;
  specs.reserve(topologies_v.size() * meshes_v.size() * patterns_v.size() *
                ia_v.size() * gs_v.size() * churn_v.size() * seeds_v.size());
  for (const noc::TopologyKind t : topologies_v) {
    for (const auto& [w, h] : meshes_v) {
      for (const noc::BePattern p : patterns_v) {
        for (const sim::Time ia : ia_v) {
          for (const noc::GsSetKind g : gs_v) {
            for (const sim::Time ch : churn_v) {
              for (const std::uint64_t s : seeds_v) {
                ScenarioSpec spec = base;
                spec.topology = t;
                spec.width = w;
                spec.height = h;
                spec.pattern = p;
                spec.be_interarrival_ps = ia;
                spec.gs_set = g;
                spec.churn_interarrival_ps = ch;
                spec.seed = s;
                spec.name = std::string(noc::to_string(p)) + "-" +
                            spec.topology_spec().label() + "-ia" +
                            std::to_string(ia) + "-gs:" + noc::to_string(g) +
                            (ch > 0 ? "-ch" + std::to_string(ch) : "") + "-s" +
                            std::to_string(s);
                specs.push_back(std::move(spec));
              }
            }
          }
        }
      }
    }
  }
  return specs;
}

namespace {

SweepGrid make_ci_smoke() {
  SweepGrid g;
  g.base.duration_ps = 1000000;  // 1 us horizon per scenario
  g.base.be_interarrival_ps = 8000;
  g.base.gs_period_ps = 8000;
  g.meshes = {{2, 2}, {3, 3}};
  g.patterns = {noc::BePattern::kUniform, noc::BePattern::kTranspose,
                noc::BePattern::kHotspot};
  g.gs_sets = {noc::GsSetKind::kRing};
  g.seeds = {1};
  return g;
}

SweepGrid make_patterns_4x4() {
  SweepGrid g;
  g.base.width = g.base.height = 4;
  g.base.duration_ps = 2000000;
  g.patterns = noc::all_be_patterns();
  g.interarrivals_ps = {4000, 12000};
  g.gs_sets = {noc::GsSetKind::kNone, noc::GsSetKind::kRing};
  return g;
}

SweepGrid make_rate_sweep_4x4() {
  SweepGrid g;
  g.base.width = g.base.height = 4;
  g.base.duration_ps = 2000000;
  g.patterns = {noc::BePattern::kUniform, noc::BePattern::kTornado};
  g.interarrivals_ps = {2000, 4000, 8000, 16000, 32000};
  g.seeds = {1, 2};
  return g;
}

SweepGrid make_gs_stress_4x4() {
  SweepGrid g;
  g.base.width = g.base.height = 4;
  g.base.duration_ps = 2000000;
  g.base.gs_period_ps = 0;  // saturate every connection
  g.base.be_interarrival_ps = 4000;
  g.gs_sets = {noc::GsSetKind::kRing, noc::GsSetKind::kRandomPairs,
               noc::GsSetKind::kAllToHotspot};
  g.seeds = {1, 2};
  return g;
}

SweepGrid make_topologies_4x4() {
  // One 16-node fabric of every kind under identical traffic: the
  // cross-topology comparison grid. be_vcs = 2 arms the dateline VC
  // classes torus/ring routing requires (and keeps the router config
  // uniform across the fabrics being compared).
  SweepGrid g;
  g.base.width = g.base.height = 4;
  g.base.duration_ps = 1000000;
  g.base.be_interarrival_ps = 8000;
  g.base.gs_period_ps = 8000;
  g.base.router.be_vcs = 2;
  g.topologies = {noc::TopologyKind::kMesh, noc::TopologyKind::kTorus,
                  noc::TopologyKind::kRing, noc::TopologyKind::kGraph};
  // Patterns defined on every fabric (transpose/tornado are not).
  g.patterns = {noc::BePattern::kUniform, noc::BePattern::kBitComplement};
  g.gs_sets = {noc::GsSetKind::kRing};
  g.seeds = {1};
  return g;
}

SweepGrid make_gs_churn_4x4() {
  // Dynamic connection lifecycle on one 16-node fabric of every kind:
  // Poisson opens through the ConnectionBroker (BE-packet programming
  // over the live network), exponential holding, drain-confirmed
  // closes, all under uniform BE background load. The churn stream
  // period (16 ns) sits above the worst-case fair-share service time so
  // admitted connections must deliver every generated flit — any loss
  // or reordering is a guarantee violation (exit code 2).
  SweepGrid g;
  g.base.width = g.base.height = 4;
  g.base.duration_ps = 3000000;
  // Background BE the *ring* can still carry: uniform traffic on a
  // 16-ring is bisection-limited near ia 20000; past that the BE
  // network saturates and programming packets (ordinary BE traffic)
  // stall behind it, so no lifecycle ever completes there.
  g.base.be_interarrival_ps = 48000;
  g.base.router.be_vcs = 2;  // dateline classes for the wrap fabrics
  g.base.gs_set = noc::GsSetKind::kNone;
  g.base.churn_hold_ps = 250000;
  g.base.churn_gs_period_ps = 16000;
  g.base.churn_queue = 8;
  g.topologies = {noc::TopologyKind::kMesh, noc::TopologyKind::kTorus,
                  noc::TopologyKind::kRing, noc::TopologyKind::kGraph};
  g.patterns = {noc::BePattern::kUniform};
  g.churn_interarrivals_ps = {25000};
  g.seeds = {1, 2};
  return g;
}

SweepGrid make_scale_8x8() {
  // The sharding workhorse: 64-node grid fabrics (mesh + torus) under
  // uniform and hotspot BE load. Large enough that a contiguous row-
  // stripe partition gives each shard real work per window, and the grid
  // CI uses for the shards-1-vs-N byte-equality comparison at scale.
  // 8x8 is the largest grid whose worst-case BE route (14 hops corner to
  // corner on the mesh) still fits the paper's 15-code source-route
  // header, so every packet here ships the packed word — the scale-1k
  // preset is where the table-routed (THDR) scheme takes over.
  // be_vcs = 2 arms the torus dateline classes (and keeps the router
  // config uniform across the two fabrics).
  SweepGrid g;
  g.base.width = g.base.height = 8;
  g.base.duration_ps = 1000000;
  g.base.be_interarrival_ps = 8000;
  g.base.gs_set = noc::GsSetKind::kRing;
  g.base.gs_period_ps = 8000;
  g.base.router.be_vcs = 2;
  g.topologies = {noc::TopologyKind::kMesh, noc::TopologyKind::kTorus};
  g.patterns = {noc::BePattern::kUniform, noc::BePattern::kHotspot};
  g.seeds = {1};
  return g;
}

SweepGrid make_scale_1k() {
  // The thousand-node ladder: 64 / 256 / 1024-node meshes and tori under
  // uniform and hotspot-fan-in BE with a full GS ring. Every fabric past
  // 8x8 has corner-to-corner routes over the paper's 15-code header
  // budget, so these rows exercise the table-routed (THDR) scheme end to
  // end — route-table materialization, per-hop table lookups, dateline
  // VCs on the tori — while the GS ring asserts the service guarantee
  // holds at every scale (violations exit non-zero). The
  // golden_scale-1k-* ctests run the 8x8/16x16 rows against recorded
  // reports at shards 1, at shards 4 and on four workers; the 32x32 rows
  // are the local/nightly thousand-node proof. Short horizon: a 32x32 uniform row still moves ~50 packets
  // per node across a 21-hop mean distance.
  SweepGrid g;
  g.base.duration_ps = 400000;
  g.base.be_interarrival_ps = 8000;
  g.base.gs_set = noc::GsSetKind::kRing;
  g.base.gs_period_ps = 8000;
  g.base.router.be_vcs = 2;
  g.topologies = {noc::TopologyKind::kMesh, noc::TopologyKind::kTorus};
  g.meshes = {{8, 8}, {16, 16}, {32, 32}};
  g.patterns = {noc::BePattern::kUniform, noc::BePattern::kHotspot};
  g.seeds = {1};
  return g;
}

SweepGrid make_cmesh_1k() {
  // Concentration rung of the scaling ladder: 4 cores per router puts
  // 1024 cores on a 16x16 router grid (a quarter of the routers the flat
  // 32x32 fabric needs, at 4x the per-router injection load).
  SweepGrid g;
  g.base.concentration = 4;
  g.base.duration_ps = 400000;
  g.base.be_interarrival_ps = 16000;  // per core; 4 cores share each router
  g.base.gs_set = noc::GsSetKind::kRing;
  g.base.gs_period_ps = 8000;
  g.topologies = {noc::TopologyKind::kCMesh};
  g.meshes = {{8, 8}, {16, 16}};
  g.patterns = {noc::BePattern::kUniform, noc::BePattern::kHotspot};
  g.seeds = {1};
  return g;
}

SweepGrid make_bench_grid() {
  SweepGrid g;
  g.base.width = g.base.height = 4;
  g.base.duration_ps = 5000000;
  g.base.be_interarrival_ps = 4000;
  g.base.gs_set = noc::GsSetKind::kRing;
  g.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  return g;
}

}  // namespace

std::vector<std::string> preset_names() {
  return {"ci-smoke",      "patterns-4x4",   "rate-sweep-4x4",
          "gs-stress-4x4", "topologies-4x4", "gs-churn-4x4",
          "scale-8x8",     "scale-1k",       "cmesh-1k",
          "bench-grid"};
}

std::optional<SweepGrid> find_preset(const std::string& name) {
  if (name == "ci-smoke") return make_ci_smoke();
  if (name == "scale-8x8") return make_scale_8x8();
  if (name == "scale-1k") return make_scale_1k();
  if (name == "cmesh-1k") return make_cmesh_1k();
  if (name == "patterns-4x4") return make_patterns_4x4();
  if (name == "rate-sweep-4x4") return make_rate_sweep_4x4();
  if (name == "gs-stress-4x4") return make_gs_stress_4x4();
  if (name == "topologies-4x4") return make_topologies_4x4();
  if (name == "gs-churn-4x4") return make_gs_churn_4x4();
  if (name == "bench-grid") return make_bench_grid();
  return std::nullopt;
}

}  // namespace mango::exp
