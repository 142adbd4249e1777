#include "exp/paper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "baseline/output_buffered_router.hpp"
#include "baseline/tdm_router.hpp"
#include "exp/scenario.hpp"
#include "model/power.hpp"
#include "model/timing.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace mango::exp::paper {

using namespace noc;
using sim::operator""_ns;
using sim::operator""_us;
using sim::TablePrinter;

namespace {

constexpr TimingCorner kWorst = TimingCorner::kWorstCase;

MeshConfig mesh(std::uint16_t width, std::uint16_t height) {
  MeshConfig m;
  m.width = width;
  m.height = height;
  return m;
}

/// A width x height mesh scenario with no BE traffic and no GS set:
/// the experiment adds its connections and, if any, its BE load.
ScenarioSpec mesh_spec(std::uint16_t width, std::uint16_t height) {
  ScenarioSpec s;
  s.width = width;
  s.height = height;
  s.be_interarrival_ps = sim::kTimeNever;
  return s;
}

/// Runs `spec` to `horizon`. The experiments' specs are valid by
/// construction, so a failed run is a ModelError.
ScenarioResult run_to(ScenarioSpec spec, sim::Time horizon) {
  spec.duration_ps = horizon;
  ScenarioResult r = run_scenario(spec);
  if (!r.ok()) throw ModelError(r.error);
  return r;
}

/// Flits each explicit connection delivered between the horizons of
/// `from` and `to`, two runs of one spec. The shorter run is a prefix
/// of the longer, and the hub counts each flit at its delivery instant,
/// so the window is exact.
std::vector<Delivered> window(const ScenarioResult& from,
                              const ScenarioResult& to) {
  std::vector<Delivered> out;
  for (std::size_t i = 0; i < to.connections.size(); ++i) {
    out.push_back({to.connections[i].flits - from.connections[i].flits,
                   to.spec.duration_ps - from.spec.duration_ps});
  }
  return out;
}
std::vector<Delivered> window(const ScenarioSpec& spec, sim::Time warmup,
                              sim::Time length) {
  return window(run_to(spec, warmup), run_to(spec, warmup + length));
}

/// Saturates `vcs` VCs of the (2,0)->(3,0) link of a 4x2 mesh. Up to 4
/// start at (2,0) and turn north after the link (XY routes x first);
/// the rest route through from (1,0) and end at (3,0), since each node
/// has only 4 local interfaces per direction.
ScenarioSpec link_spec(unsigned vcs) {
  ScenarioSpec s = mesh_spec(4, 2);
  for (unsigned v = 1; v <= vcs; ++v) {
    if (v <= 4) s.connections.push_back({{2, 0}, {3, 1}, {}});
    else s.connections.push_back({{1, 0}, {3, 0}, {}});
  }
  return s;
}

/// One saturating VC (0,0)->(1,0) on `m`, run to `horizon`: the flits
/// it delivered by then and their p50 latency [ns]. Link depth,
/// signalling and skew are fabric parameters a ScenarioSpec does not
/// carry, so E5 and E15 build the network directly.
std::pair<std::uint64_t, double> single_vc_run(const MeshConfig& m,
                                               sim::Time horizon) {
  sim::SimContext ctx;
  Network net(ctx, m);
  MeasurementHub hub;
  hub.set_horizon(horizon);
  attach_hub(net, hub);
  ConnectionManager mgr(net, {0, 0});
  GsStreamSource source(net.na({0, 0}),
                        mgr.open_direct({0, 0}, {1, 0}).src_iface, 1, {});
  source.start();
  ctx.run_until(horizon);
  return {hub.flow(1).flits, hub.flow(1).latency_ns.p50()};
}

std::string ns_label(sim::Time ps) {
  return ps == 0 ? "none" : std::to_string(ps / 1000) + " ns";
}

}  // namespace

bool meets_rate(const Delivered& d, double flits_per_ns) {
  return static_cast<double>(d.flits) >=
         flits_per_ns * sim::to_ns(d.window_ps) - 1.0;
}

// --- E1 ----------------------------------------------------------------------

namespace {
void print_e1() {
  std::printf("E1 / Table 1 — Area usage in the MANGO router\n");
  std::printf("paper config: 5x5 ports, 8 VCs/port, 32-bit flits, "
              "0.12 um standard cells\n\n");
  const std::vector<AreaRow> rows = table1_area();
  TablePrinter table({"Module", "Paper [mm^2]", "Model [mm^2]", "Delta"});
  for (const AreaRow& r : rows) {
    table.add_row({r.module, TablePrinter::fmt(r.paper_mm2, 3),
                   TablePrinter::fmt(r.model_mm2, 3),
                   TablePrinter::fmt(r.model_mm2 - r.paper_mm2, 4)});
  }
  table.print();
  const double big = rows[1].model_mm2 + rows[2].model_mm2;
  std::printf("\nSection 6 check: switching module + VC buffers = %.3f mm^2 "
              "(%.0f%% of total) — \"more than half\"\n",
              big, 100.0 * big / rows.back().model_mm2);
}
}  // namespace

std::vector<AreaRow> table1_area() {
  const model::AreaBreakdown a = model::router_area(model::AreaConfig{});
  return {{"Connection table", 0.005, a.connection_table},
          {"Switching module", 0.065, a.switching_module},
          {"VC buffers", 0.047, a.vc_buffers},
          {"Link access", 0.022, a.link_access},
          {"VC control", 0.016, a.vc_control},
          {"BE router", 0.033, a.be_router},
          {"Total", 0.188, a.total()}};
}

// --- E2 ----------------------------------------------------------------------

namespace {
void print_e2() {
  std::printf("E2 — Port speed (Section 6): netlist STA -> calibrated "
              "timing model -> event simulation\n\n");
  TablePrinter table({"Corner", "Paper [MHz]", "Analytic model [MHz]",
                      "Simulated [MHz]"});
  for (const PortSpeedRow& r : port_speed()) {
    table.add_row({r.corner == kWorst ? "worst case 1.08V/125C" : "typical",
                   TablePrinter::fmt(r.paper_mhz, 0),
                   TablePrinter::fmt(model::port_speed_mhz(r.corner), 1),
                   TablePrinter::fmt(r.link.mhz(), 1)});
  }
  table.print();
  std::printf("\nThe simulator and the analytic model agree; both corners "
              "are calibrated to the paper's figures.\n");
}
}  // namespace

std::vector<PortSpeedRow> port_speed() {
  std::vector<PortSpeedRow> rows;
  for (const auto& [corner, paper] :
       {std::pair{kWorst, 515.0}, std::pair{TimingCorner::kTypical, 795.0}}) {
    ScenarioSpec s = link_spec(8);
    s.router.corner = corner;
    Delivered link{0, 4000_ns};
    for (const Delivered& d : window(s, 200_ns, 4000_ns)) link.flits += d.flits;
    rows.push_back({corner, paper, link});
  }
  return rows;
}

// --- E3 ----------------------------------------------------------------------

namespace {
void print_e3() {
  std::printf("E3 — Switch congestion: generic output-buffered router "
              "(Fig 3) vs MANGO non-blocking switching (Fig 4)\n\n");
  // MANGO's column is the analytic media traversal, not a measurement.
  const StageDelays d = stage_delays(kWorst);
  const double mango_ns =
      sim::to_ns(d.split_fwd + d.switch_fwd + d.unshare_fwd);
  TablePrinter table({"Background load", "generic p50 [ns]",
                      "generic p99 [ns]", "generic max [ns]",
                      "MANGO switch latency [ns]"});
  for (const BlockingRow& r : fig3_blocking()) {
    table.add_row({TablePrinter::fmt(r.background_load * 100.0, 0) + "%",
                   TablePrinter::fmt(r.p50_ns, 2),
                   TablePrinter::fmt(r.p99_ns, 2),
                   TablePrinter::fmt(r.max_ns, 2),
                   TablePrinter::fmt(mango_ns, 2) + " (constant)"});
  }
  table.print();
  std::printf(
      "\nThe generic router's switch latency grows and jitters with the "
      "background load\n(\"congestion may occur ... unsuitable for "
      "providing service guarantees\", Section 4.1).\nMANGO's fabric has "
      "no arbitration: traversal latency is constant by construction;\n"
      "contention exists only at link access, where the arbiter enforces "
      "each VC's share.\n");
}
}  // namespace

std::vector<BlockingRow> fig3_blocking() {
  std::vector<BlockingRow> rows;
  const StageDelays d = stage_delays(kWorst);
  for (double load : {0.0, 0.3, 0.6, 0.8, 0.95}) {
    sim::SimContext ctx;
    sim::Simulator& simulator = ctx.sim();
    baseline::OutputBufferedRouter router(ctx, 5, d);
    sim::ControlPlane injections;
    injections.bind_kernel(simulator);
    sim::Histogram probe_lat;
    router.set_delivery([&](unsigned, Flit&& f, sim::Time lat) {
      if (f.tag == 1) probe_lat.add(sim::to_ns(lat));
    });
    // Probe: CBR at 1/8 of the link rate, into output 4.
    for (sim::Time t = 0; t < 50_us; t += 8 * d.arb_cycle) {
      injections.post_at(simulator, t, [&router] {
        Flit f;
        f.tag = 1;
        router.inject(0, 4, f);
      });
    }
    // Background: three bursty sources, Bernoulli per link cycle.
    sim::Rng rng(99);
    for (unsigned in = 1; in <= 3; ++in) {
      for (sim::Time t = 0; t < 50_us; t += d.arb_cycle) {
        if (!rng.next_bool(load / 3.0)) continue;
        injections.post_at(simulator, t, [&router, in] {
          Flit f;
          f.tag = 100 + in;
          router.inject(in, 4, f);
        });
      }
    }
    simulator.run();
    rows.push_back({load, probe_lat.p50(), probe_lat.p99(), probe_lat.max()});
  }
  return rows;
}

// --- E4 ----------------------------------------------------------------------

namespace {
void print_e4() {
  std::printf("E4 — Fair-share bandwidth guarantees on one link "
              "(Section 4.4)\n\n");
  const double link = model::port_speed_mhz(kWorst) / 1000.0;
  const double guarantee = model::fair_share_guarantee_flits_per_ns(kWorst, 8);
  std::printf("link capacity %.4f flits/ns; hard per-VC guarantee "
              ">= %.4f flits/ns (1/8)\n\n",
              link, guarantee);
  TablePrinter table({"active VCs", "min VC [flits/ns]", "max VC [flits/ns]",
                      "aggregate [flits/ns]", "guarantee met"});
  for (const FairShareRow& r : fair_share()) {
    table.add_row({std::to_string(r.active_vcs),
                   TablePrinter::fmt(r.min_vc.per_ns(), 4),
                   TablePrinter::fmt(r.max_vc.per_ns(), 4),
                   TablePrinter::fmt(r.aggregate, 4),
                   meets_rate(r.min_vc, guarantee) ? "yes" : "NO"});
  }
  table.print();
  std::printf(
      "\nEvery active VC gets at least its 1/8 share; with fewer active "
      "VCs the unused\nshares redistribute (\"the link is automatically "
      "used by another contending VC\").\nA single VC is capped by its "
      "share-control loop, not the link (see E5).\n");
}
}  // namespace

std::vector<FairShareRow> fair_share() {
  std::vector<FairShareRow> rows;
  for (unsigned n = 1; n <= 8; ++n) {
    const std::vector<Delivered> vcs = window(link_spec(n), 300_ns, 6000_ns);
    FairShareRow r{n, vcs[0], vcs[0], 0.0};
    for (const Delivered& d : vcs) {
      if (d.flits < r.min_vc.flits) r.min_vc = d;
      if (d.flits > r.max_vc.flits) r.max_vc = d;
      r.aggregate += d.per_ns();
    }
    rows.push_back(r);
  }
  return rows;
}

// --- E5 ----------------------------------------------------------------------

namespace {
void print_e5() {
  std::printf("E5 — Single-VC throughput vs link length (Section 4.3)\n\n");
  const double port = model::port_speed_mhz(kWorst);
  std::printf("link issue rate (8 VCs overlapping): %.1f MHz\n\n", port);
  TablePrinter table({"link pipeline stages", "analytic single VC [MHz]",
                      "simulated single VC [MHz]", "fraction of link"});
  for (const SingleVcRow& r : single_vc()) {
    table.add_row(
        {std::to_string(r.link_stages),
         TablePrinter::fmt(model::single_vc_mhz(kWorst, r.link_stages), 1),
         TablePrinter::fmt(r.vc.mhz(), 1),
         TablePrinter::fmt(r.vc.mhz() / port, 3)});
  }
  table.print();
  std::printf(
      "\nOne VC is limited by its share-control loop (media forward + "
      "unlock wire back);\nthe full link bandwidth is only reachable when "
      "several VCs' handshakes overlap.\nLonger links stretch the loop — "
      "\"the cycle time of the VC link is sensitive to\nthe forward "
      "latency of the flits\" — which is why clockless circuits' short\n"
      "per-stage forward latency matters.\n");
}
}  // namespace

std::vector<SingleVcRow> single_vc() {
  std::vector<SingleVcRow> rows;
  for (unsigned stages : {1u, 2u, 3u, 4u, 6u}) {
    MeshConfig m = mesh(2, 2);
    m.link_pipeline_stages = stages;
    rows.push_back({stages,
                    {single_vc_run(m, 6300_ns).first -
                         single_vc_run(m, 300_ns).first,
                     6000_ns}});
  }
  return rows;
}

// --- E6 ----------------------------------------------------------------------

namespace {
void print_e6() {
  std::printf("E6 — GS independence from BE load (4x4 mesh, GS probe "
              "(0,0)->(3,3), uniform-random BE)\n\n");
  TablePrinter table({"BE interarrival/node", "BE pkts", "GS p50 [ns]",
                      "GS p99 [ns]", "GS jitter [ns]", "GS seq errs",
                      "BE p50 [ns]", "BE p99 [ns]"});
  const std::vector<IndependenceRow> rows = gs_be_independence();
  double p50_max = 0.0;
  double p99_max = 0.0;
  double gs_max = 0.0;
  std::uint64_t seq_errors = 0;
  for (const IndependenceRow& r : rows) {
    p50_max = std::max(p50_max, r.gs.latency_p50_ns);
    p99_max = std::max(p99_max, r.gs.latency_p99_ns);
    gs_max = std::max(gs_max, r.gs.latency_max_ns);
    seq_errors += r.gs.seq_errors;
    table.add_row({ns_label(r.be_interarrival_ps),
                   std::to_string(r.be_packets),
                   TablePrinter::fmt(r.gs.latency_p50_ns, 2),
                   TablePrinter::fmt(r.gs.latency_p99_ns, 2),
                   TablePrinter::fmt(
                       r.gs.latency_max_ns - r.gs.latency_min_ns, 2),
                   std::to_string(r.gs.seq_errors),
                   TablePrinter::fmt(r.be_p50, 1),
                   TablePrinter::fmt(r.be_p99, 1)});
  }
  table.print();
  // The probe crosses 6 links of the 4x4 mesh.
  const double bound_ns =
      sim::to_ns(model::worst_case_latency_ps(kWorst, 8, 6));
  std::printf(
      "\nGS latency is not flat: as BE load grows, GS p50 rises from %.2f "
      "to at most %.2f ns\nand p99 from %.2f to at most %.2f ns. The "
      "slowest GS flit of the sweep takes %.2f ns,\nagainst the 6-hop "
      "worst-case bound of %.1f ns, with %llu GS sequence errors: BE load\n"
      "moves GS latency inside the guarantee, never past it. BE latency, "
      "by contrast,\ngrows with its own load.\n",
      rows.front().gs.latency_p50_ns, p50_max, rows.front().gs.latency_p99_ns,
      p99_max, gs_max,
      bound_ns, static_cast<unsigned long long>(seq_errors));
}
}  // namespace

std::vector<IndependenceRow> gs_be_independence(std::uint64_t be_seed) {
  std::vector<IndependenceRow> rows;
  for (sim::Time interarrival : {0, 80000, 40000, 20000, 10000, 6000}) {
    ScenarioSpec s = mesh_spec(4, 4);
    GsStreamSource::Options paced;
    paced.period_ps = 16000;  // half the probe's guarantee
    s.connections.push_back({{0, 0}, {3, 3}, paced});
    if (interarrival > 0) s.be_interarrival_ps = interarrival;
    s.payload_words = 6;
    s.seed = be_seed;
    const ScenarioResult r = run_to(s, 60_us);
    rows.push_back({interarrival, r.stats.be_packets_delivered,
                    r.connections[0], r.stats.be_latency_p50_ns,
                    r.stats.be_latency_p99_ns});
  }
  return rows;
}

// --- E7 ----------------------------------------------------------------------

namespace {
/// A probe (0,0)->(hops,0) on an 8x2 mesh, the spec's first
/// connection, with flit period `period`: saturating (0) for the
/// throughput bound, or paced just under its guarantee for the latency
/// bound (a saturated probe queues behind itself, which the lone-flit
/// worst case deliberately excludes). Three 2-hop saturating
/// connections start at every path node, so the first path link carries
/// the probe and the 3 VCs that start at (0,0) (the probe and those 3
/// use all four of its local GS interfaces), and every later path link
/// the probe and 6 other VCs.
ScenarioSpec probe_spec(unsigned hops, sim::Time period) {
  ScenarioSpec s = mesh_spec(8, 2);
  GsStreamSource::Options probe;
  probe.period_ps = period;
  s.connections.push_back(
      {{0, 0}, {static_cast<std::uint16_t>(hops), 0}, probe});
  for (std::uint16_t k = 0; k < hops; ++k) {
    const GsConnection background{
        {k, 0}, {static_cast<std::uint16_t>(k + 2), 0}, {}};
    s.connections.insert(s.connections.end(), 3, background);
  }
  return s;
}

void print_e7() {
  std::printf("E7 — End-to-end guarantees over multi-hop connections, the "
              "first path link contended by 3 other saturating VCs, every "
              "later one by 6\n\n");
  const double guarantee = model::fair_share_guarantee_flits_per_ns(kWorst, 8);
  std::printf("hard lower bound: %.4f flits/ns (1/8 of the link)\n\n",
              guarantee);
  TablePrinter table({"hops", "saturated rate [flits/ns]", "bound met",
                      "paced p50 [ns]", "paced p99 [ns]",
                      "analytic worst [ns]", "seq errs"});
  const std::vector<MultihopRow> rows = multihop();
  for (const MultihopRow& r : rows) {
    const double bound_ns =
        sim::to_ns(model::worst_case_latency_ps(kWorst, 8, r.hops));
    table.add_row({std::to_string(r.hops),
                   TablePrinter::fmt(r.saturated.per_ns(), 4),
                   meets_rate(r.saturated, guarantee) ? "yes" : "NO",
                   TablePrinter::fmt(r.paced_p50, 1),
                   TablePrinter::fmt(r.paced_p99, 1),
                   TablePrinter::fmt(bound_ns, 1),
                   std::to_string(r.seq_errors)});
  }
  table.print();
  // Hop-to-hop increments of the printed (0.1 ns) paced quantiles.
  auto steps = [&rows](double MultihopRow::*q) {
    std::string out;
    for (std::size_t i = 1; i < rows.size(); ++i) {
      const long tenths = std::lround(rows[i].*q * 10) -
                          std::lround(rows[i - 1].*q * 10);
      out += (i > 1 ? ", " : "") + TablePrinter::fmt(tenths / 10.0, 1);
    }
    return out;
  };
  std::printf(
      "\nThe throughput bound holds independent of path length. A probe "
      "paced just under its\nguarantee sees p99 below the analytic "
      "lone-flit worst case (V grants + constant media\ntraversal per "
      "hop) at every length. The bound grows by %s ns a hop. Paced "
      "latency is\nnot linear in hops: each added hop raises p50 by %s "
      "ns and p99\nby %s ns.\n",
      TablePrinter::fmt(
          sim::to_ns(model::worst_case_latency_ps(kWorst, 8, 1)), 1)
          .c_str(),
      steps(&MultihopRow::paced_p50).c_str(),
      steps(&MultihopRow::paced_p99).c_str());
}
}  // namespace

std::vector<MultihopRow> multihop() {
  std::vector<MultihopRow> rows;
  const sim::Time paced_period = 9 * stage_delays(kWorst).arb_cycle;
  for (unsigned hops = 1; hops <= 6; ++hops) {
    const ScenarioSpec sat = probe_spec(hops, 0);
    const ScenarioResult sat_end = run_to(sat, 11000_ns);
    const Delivered rate = window(run_to(sat, 1000_ns), sat_end)[0];
    const ConnectionStats paced =
        run_to(probe_spec(hops, paced_period), 11000_ns).connections[0];
    rows.push_back({hops, rate, paced.latency_p50_ns, paced.latency_p99_ns,
                    sat_end.connections[0].seq_errors + paced.seq_errors});
  }
  return rows;
}

// --- E8 ----------------------------------------------------------------------

namespace {
BeLoadRow run_be_load(sim::Time interarrival) {
  ScenarioSpec s = mesh_spec(4, 4);
  s.be_interarrival_ps = interarrival;
  s.payload_words = 4;
  s.seed = 31337;
  const sim::Time horizon = 50_us;
  const ScenarioStats st = run_to(s, horizon).stats;
  return {interarrival,
          static_cast<double>(st.be_packets_generated) / sim::to_us(horizon),
          static_cast<double>(st.be_packets_delivered) / sim::to_us(horizon),
          st.be_latency_p50_ns, st.be_latency_p99_ns};
}

/// Head-of-line blocking probe: short packets to an uncongested
/// destination share the injection point with long packets towards a
/// hotspot. With one BE VC the short packets wait behind the long ones
/// in every shared FIFO; the second BE VC lets them overtake.
double hol_probe_p99(unsigned be_vcs) {
  MeshConfig m = mesh(4, 2);
  m.router.be_vcs = be_vcs;
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  Network net(ctx, m);
  MeasurementHub hub;
  attach_hub(net, hub);
  BeTrafficSource::Options bulk;  // long packets (0,0) -> (3,0)
  bulk.mean_interarrival_ps = 30000;
  bulk.payload_words = 24;
  bulk.fixed_dst = NodeId{3, 0};
  bulk.seed = 3;
  BeTrafficSource source(net, NodeId{0, 0}, 1, bulk);
  source.start();
  // Probe: short urgent packets (0,0) -> (0,1), on the second VC when
  // available.
  const BeVcIdx probe_vc = be_vcs > 1 ? 1 : 0;
  std::uint64_t sent = 0;
  std::function<void()> send_probe = [&] {
    if (sent >= 400) return;
    BePacket pkt = make_be_packet(net.be_route({0, 0}, {0, 1}), {1u}, 2);
    for (Flit& fl : pkt.flits) fl.injected_at = simulator.now();
    net.na({0, 0}).send_be_packet(std::move(pkt), probe_vc);
    ++sent;
    net.control().post_at(simulator, simulator.now() + 25000, send_probe);
  };
  net.control().post_at(simulator, simulator.now() + 1000, send_probe);
  hub.set_horizon(50_us);
  simulator.run_until(50_us);
  return hub.flow(2).latency_ns.p99();
}

double path_p50(unsigned hops) {
  sim::SimContext ctx;
  Network net(ctx, mesh(8, 2));
  MeasurementHub hub;
  attach_hub(net, hub);
  BeTrafficSource::Options opt;
  opt.mean_interarrival_ps = 100000;  // light load: pure path latency
  opt.fixed_dst = NodeId{static_cast<std::uint16_t>(hops), 0};
  opt.payload_words = 4;
  opt.max_packets = 100;
  opt.seed = 5;
  BeTrafficSource source(net, NodeId{0, 0}, 1, opt);
  source.start();
  ctx.run();
  return hub.flow(1).latency_ns.p50();
}

void print_e8() {
  std::printf("E8 — BE router under uniform-random traffic (4x4 mesh, "
              "6-flit packets, XY source routing)\n\n");
  const BeRouterResult r = be_router();
  TablePrinter load_table({"interarrival/node", "offered [pkt/us]",
                           "delivered [pkt/us]", "p50 [ns]", "p99 [ns]"});
  for (const BeLoadRow& p : r.load) {
    load_table.add_row({ns_label(p.interarrival_ps),
                        TablePrinter::fmt(p.offered_per_us, 1),
                        TablePrinter::fmt(p.delivered_per_us, 1),
                        TablePrinter::fmt(p.p50_ns, 1),
                        TablePrinter::fmt(p.p99_ns, 1)});
  }
  load_table.print();
  std::printf("\nLatency rises towards saturation while delivery tracks "
              "offer until the wormhole\nnetwork saturates — classic BE "
              "behaviour; \"the BE router ... holds lots of potential\n"
              "for improvement\" (Section 5).\n\n");
  std::printf("Path-length sweep (light load; the 32-bit header budgets "
              "15 codes = 14 link hops):\n\n");
  TablePrinter hop_table({"link hops", "p50 latency [ns]"});
  for (const auto& [hops, p50] : r.hops_p50_ns) {
    hop_table.add_row({std::to_string(hops), TablePrinter::fmt(p50, 1)});
  }
  hop_table.print();
  std::printf("\nLatency grows linearly with hop count (one header "
              "rotation + routing cycle per hop).\n\n");
  std::printf("BE VC extension (Section 5: the reserved control bit "
              "\"can be used to indicate one of\ntwo BE VCs\"): urgent "
              "short packets sharing the injection point with bulk "
              "packets:\n\n");
  TablePrinter vc_table({"BE VCs", "urgent-probe p99 [ns]"});
  for (const auto& [vcs, p99] : r.be_vcs_probe_p99_ns) {
    vc_table.add_row({std::to_string(vcs), TablePrinter::fmt(p99, 1)});
  }
  vc_table.print();
  std::printf("\nWith a single BE VC the probe head-of-line-blocks behind "
              "bulk packets in the shared\nFIFOs; the second VC lets it "
              "overtake — the extension the paper reserves the spare\n"
              "flit bit for.\n");
}
}  // namespace

BeRouterResult be_router() {
  BeRouterResult r;
  for (sim::Time t : {200000, 100000, 50000, 25000, 12000, 8000}) {
    r.load.push_back(run_be_load(t));
  }
  for (unsigned hops : {1u, 2u, 3u, 5u, 7u}) {
    r.hops_p50_ns.emplace_back(hops, path_p50(hops));
  }
  for (unsigned vcs : {1u, 2u}) {
    r.be_vcs_probe_p99_ns.emplace_back(vcs, hol_probe_p99(vcs));
  }
  return r;
}

// --- E9 ----------------------------------------------------------------------

namespace {
void print_e9() {
  std::printf("E9 — MANGO vs ÆTHEREAL-style TDM GS router (Section 6)\n\n");
  const TdmCompare c = tdm_compare();
  TablePrinter table({"Property", "MANGO (this work)", "AETHEREAL-style TDM"});
  table.add_row({"technology", "0.12 um std cells", "0.13 um, custom FIFOs"});
  table.add_row({"area [mm^2]", TablePrinter::fmt(c.mango_area_mm2, 3),
                 TablePrinter::fmt(c.tdm_area_mm2, 3)});
  table.add_row({"port speed [MHz]", TablePrinter::fmt(c.mango_port_mhz, 0),
                 "500"});
  table.add_row({"timing", "clockless (GALS-ready)", "globally synchronous"});
  table.add_row({"GS connections", "32, independently buffered",
                 "up to 256, shared queues"});
  table.add_row({"end-to-end flow control", "inherent (per-VC buffers)",
                 "required (e.g. credits)"});
  table.add_row({"routing info on connections", "stored in router (0-bit "
                 "header)", "packet header overhead"});
  table.add_row({"idle dynamic power", "zero", "> 0 (clock tree)"});
  table.print();
  std::printf("\nBehavioural contrasts\n\n");
  TablePrinter beh({"Metric", "MANGO fair-share", "TDM slot table (16 "
                    "slots @ 500 MHz)"});
  beh.add_row({"bandwidth granularity", "1/8 of link per VC",
               "1/16 of link per slot"});
  beh.add_row({"worst service wait, lone flow",
               TablePrinter::fmt(c.mango_wait_ns, 1) + " ns (next grant)",
               TablePrinter::fmt(c.tdm_wait_ns, 1) + " ns (slot wait)"});
  beh.add_row({"unused bandwidth", "redistributed (work conserving)",
               "wasted (empty slots pass)"});
  beh.print();
  std::printf(
      "\nThe paper's qualitative claims hold: comparable area and port "
      "speed, with MANGO adding\nindependent buffering (no end-to-end "
      "flow control), no routing overhead on connections,\nclockless "
      "integration and zero idle power — at 32 vs 256 connections.\n");
}
}  // namespace

TdmCompare tdm_compare() {
  // TDM jitter: a connection owns 1 of 16 slots at 500 MHz; one flit
  // per revolution arrives at an awkward phase and waits for its slot.
  const unsigned slots = 16;
  const sim::Time clk_ps = 2000;
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  baseline::TdmRouter tdm(ctx, 5, slots, clk_ps);
  sim::ControlPlane injections;
  injections.bind_kernel(simulator);
  tdm.reserve(1, 0, 1);
  sim::Histogram waits;
  sim::Time injected_at = 0;
  tdm.set_delivery([&](std::uint32_t, Flit&&) {
    waits.add(sim::to_ns(simulator.now() - injected_at));
  });
  tdm.start();
  const sim::Time rev = static_cast<sim::Time>(slots) * clk_ps;
  for (unsigned i = 0; i < 64; ++i) {
    const sim::Time t = i * rev + (i % slots) * clk_ps + clk_ps / 3;
    injections.post_at(simulator, t, [&] {
      injected_at = simulator.now();
      tdm.inject(1, Flit{});
    });
  }
  simulator.run_until(70 * rev);
  return {model::router_area(model::AreaConfig{}).total(),
          model::tdm_router_area(model::TdmAreaConfig{}).total(),
          model::port_speed_mhz(kWorst),
          sim::to_ns(stage_delays(kWorst).arb_cycle), waits.max()};
}

// --- E10 ---------------------------------------------------------------------

namespace {
/// Worst end-to-end latency of a paced probe at ALG priority `priority`
/// (its VC index on the one-hop link), the other VCs saturating; -1 when
/// the probe delivered nothing. VCs are allocated in open order, and
/// (0,0) has 4 source interfaces, so this covers priorities 0..3.
double alg_probe_max_ns(unsigned priority) {
  ScenarioSpec s = mesh_spec(2, 1);
  s.router.arbiter = ArbiterKind::kStaticPriority;
  GsStreamSource::Options paced;
  paced.period_ps = 40000;  // well under any share: measures pure waits
  paced.max_flits = 200;
  for (unsigned v = 0; v < 4; ++v) {
    s.connections.push_back(
        {{0, 0}, {1, 0}, v == priority ? paced : GsStreamSource::Options{}});
  }
  const ConnectionStats probe = run_to(s, 10_us).connections[priority];
  return probe.flits == 0 ? -1.0 : probe.latency_max_ns;
}

void print_e10() {
  std::printf("E10 — Link-arbiter ablation: 8 saturating VCs on one "
              "link (VC index = priority where applicable)\n\n");
  const ArbiterAblation r = arbiter_ablation();
  TablePrinter table({"scheme", "per-VC rate [flits/ns]",
                      "aggregate", "guarantee"});
  for (const ArbiterRow& s : r.schemes) {
    std::string rates;
    for (double rate : s.per_vc_rate) {
      if (!rates.empty()) rates += " ";
      rates += TablePrinter::fmt(rate, 3);
    }
    table.add_row({s.scheme, rates, TablePrinter::fmt(s.aggregate, 3),
                   s.guarantee});
  }
  table.print();
  std::printf("\nALG latency guarantees (static priority + share-based "
              "control, one hop, others saturating):\n\n");
  TablePrinter alg({"priority", "analytic wait bound [ns]",
                    "latency bound [ns]", "measured max [ns]", "held"});
  for (const AlgRow& a : r.alg) {
    if (a.wait_bound_ps == 0) {
      alg.add_row({std::to_string(a.priority), "unbounded", "unbounded",
                   a.measured_max_ns < 0
                       ? "starved (0 delivered)"
                       : TablePrinter::fmt(a.measured_max_ns, 1),
                   "-"});
      continue;
    }
    alg.add_row({std::to_string(a.priority),
                 TablePrinter::fmt(sim::to_ns(a.wait_bound_ps), 1),
                 TablePrinter::fmt(a.latency_bound_ns, 1),
                 TablePrinter::fmt(a.measured_max_ns, 1),
                 a.measured_max_ns <= a.latency_bound_ns ? "yes" : "NO"});
  }
  alg.print();
  std::printf(
      "\nFair-share splits the link evenly. Static priority with "
      "share-based control (ALG, ref [6])\nfavors low VC indices but the "
      "one-flit-in-media rule leaves slack that lower priorities\nuse. "
      "With credit-based control (priority-QoS routers, ref [9]) the top "
      "VCs claim\nback-to-back cycles and the lowest VCs starve: "
      "differentiated service, no hard\nguarantees — the distinction "
      "Section 2 draws.\n");
}
}  // namespace

ArbiterAblation arbiter_ablation() {
  ArbiterAblation r;
  const struct {
    const char* name;
    ArbiterKind arbiter;
    const char* guarantee;
  } schemes[] = {
      {"fair-share (MANGO demo)", ArbiterKind::kFairShare,
       ">= 1/8 link BW per VC (hard)"},
      {"ALG-style static priority", ArbiterKind::kStaticPriority,
       "bounded latency per priority; low VCs get loop slack"},
      {"unregulated priority QoS", ArbiterKind::kUnregulated,
       "none — low priorities can starve"},
  };
  for (const auto& s : schemes) {
    ScenarioSpec spec = link_spec(8);
    spec.router.arbiter = s.arbiter;
    ArbiterRow row{s.name, s.guarantee, {}, 0.0};
    for (const Delivered& d : window(spec, 500_ns, 8000_ns)) {
      row.per_vc_rate.push_back(d.per_ns());
      row.aggregate += d.per_ns();
    }
    r.schemes.push_back(row);
  }
  // ALG wait bounds (ref [6]) on top of the one-hop media latency.
  const StageDelays d = stage_delays(kWorst);
  const double base_ns = sim::to_ns(
      d.na_link_fwd + (d.split_fwd + d.switch_fwd + d.unshare_fwd) +
      d.buf_advance + d.req_fwd + (d.merge_fwd + d.link_fwd) +
      (d.split_fwd + d.switch_fwd + d.unshare_fwd) + d.buf_advance +
      d.na_link_fwd);
  for (unsigned p = 0; p < 4; ++p) {
    const sim::Time wait = model::alg_wait_bound_ps(kWorst, p);
    r.alg.push_back({p, wait, base_ns + sim::to_ns(wait), alg_probe_max_ns(p)});
  }
  return r;
}

// --- E11 ---------------------------------------------------------------------

namespace {
void print_e11() {
  std::printf("E11 — Router area scaling (area model, 0.12 um "
              "calibration)\n\n");
  std::printf("Sweep over VCs per port (5x5 ports, 32-bit flits):\n\n");
  const AreaScaling r = area_scaling();
  TablePrinter vtable({"V", "GS conns", "switching [mm^2]", "VC ctrl [mm^2]",
                       "buffers [mm^2]", "total [mm^2]",
                       "switching/V [mm^2]"});
  for (const AreaPoint& p : r.by_vcs) {
    vtable.add_row({std::to_string(p.param), std::to_string(4 * p.param),
                    TablePrinter::fmt(p.area.switching_module, 3),
                    TablePrinter::fmt(p.area.vc_control, 3),
                    TablePrinter::fmt(p.area.vc_buffers, 3),
                    TablePrinter::fmt(p.area.total(), 3),
                    TablePrinter::fmt(p.area.switching_module / p.param, 4)});
  }
  vtable.print();
  std::printf(
      "\nswitching/V is constant -> linear scaling (Section 4.2). The VC "
      "control module\ngrows quadratically (P*V muxes of (P-1)*V inputs) — "
      "\"for larger number of VCs, it\nmight prove worthwhile to implement "
      "a more complex switch structure, e.g. a Clos\nnetwork\" "
      "(Section 4.3).\n\n");
  std::printf("Sweep over network ports (8 VCs/port):\n\n");
  TablePrinter ptable({"network ports", "total [mm^2]", "switching [mm^2]",
                       "VC ctrl [mm^2]"});
  for (const AreaPoint& p : r.by_ports) {
    ptable.add_row({std::to_string(p.param),
                    TablePrinter::fmt(p.area.total(), 3),
                    TablePrinter::fmt(p.area.switching_module, 3),
                    TablePrinter::fmt(p.area.vc_control, 3)});
  }
  ptable.print();
}
}  // namespace

AreaScaling area_scaling() {
  AreaScaling r;
  for (unsigned v : {2u, 4u, 8u, 16u, 32u}) {
    model::AreaConfig cfg;
    cfg.vcs_per_port = v;
    r.by_vcs.push_back({v, model::router_area(cfg)});
  }
  for (unsigned ports : {3u, 4u, 5u, 6u}) {
    model::AreaConfig cfg;
    cfg.network_ports = ports;
    r.by_ports.push_back({ports, model::router_area(cfg)});
  }
  return r;
}

// --- E12 ---------------------------------------------------------------------

namespace {
void print_e12() {
  std::printf("E12 — Idle and load-proportional dynamic power (2x2 mesh, "
              "activity-based accounting)\n\n");
  // Four routers' clock trees.
  const double clocked_idle = 4.0 * model::clocked_idle_power_mw(500.0);
  TablePrinter table({"offered GS load", "MANGO dynamic [mW]",
                      "clocked router idle floor [mW]"});
  for (const PowerRow& r : idle_power()) {
    table.add_row({r.load, TablePrinter::fmt(r.dynamic_mw, 4),
                   TablePrinter::fmt(clocked_idle, 2)});
  }
  table.print();
  std::printf(
      "\nAt zero traffic the clockless router burns exactly 0 dynamic "
      "power — no events, no\ntransitions — while a 500 MHz clocked "
      "equivalent keeps toggling its clock tree.\nMANGO's dynamic power "
      "then scales with the event rate (self-timed, data-driven "
      "control).\n");
}
}  // namespace

std::vector<PowerRow> idle_power() {
  std::vector<PowerRow> rows = {{"idle (no traffic)", 0, 0.0},
                                {"1 flit / 64 ns", 64000, 0.0},
                                {"1 flit / 16 ns", 16000, 0.0},
                                {"1 flit / 4 ns", 4000, 0.0},
                                {"saturated VC (~2.1 ns)", 2200, 0.0}};
  // Router activity is an observation a ScenarioResult does not carry,
  // so E12 builds the network directly.
  for (PowerRow& r : rows) {
    sim::SimContext ctx;
    Network net(ctx, mesh(2, 2));
    MeasurementHub hub;
    attach_hub(net, hub);
    ConnectionManager mgr(net, {0, 0});
    std::unique_ptr<GsStreamSource> source;
    if (r.gs_period_ps > 0) {
      GsStreamSource::Options opt;
      opt.period_ps = r.gs_period_ps;
      const Connection& c = mgr.open_direct({0, 0}, {1, 1});
      source = std::make_unique<GsStreamSource>(net.na({0, 0}), c.src_iface,
                                                1, opt);
      source->start();
    }
    const sim::Time horizon = 20_us;
    ctx.run_until(horizon);
    for (std::size_t i = 0; i < net.node_count(); ++i) {
      r.dynamic_mw += model::dynamic_power_mw(
          net.router(net.node_at(i)).activity(), horizon);
    }
  }
  return rows;
}

// --- E13 ---------------------------------------------------------------------

namespace {
/// Opens (0,0)->(hops,0) through programming packets, optionally after
/// 5 us of uniform BE background; 0 latency if it does not complete
/// within 200 us. Packet-programmed setup is not a scenario connection,
/// so E13 builds the network directly.
std::pair<sim::Time, unsigned> setup_latency(unsigned hops, bool background) {
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  Network net(ctx, mesh(8, 2));
  MeasurementHub hub;
  attach_hub(net, hub);
  ConnectionManager mgr(net, {0, 0});
  std::vector<std::unique_ptr<BeTrafficSource>> be;
  if (background) {
    be = start_pattern_be(net, BePattern::kUniform, {}, 20000, 4, 11);
    simulator.run_until(5_us);
  }
  const sim::Time t0 = simulator.now();
  std::pair<sim::Time, unsigned> out{0, 0};
  bool done = false;
  mgr.open_via_packets({0, 0}, {static_cast<std::uint16_t>(hops), 0},
                       [&](const Connection& conn) {
                         out = {simulator.now() - t0,
                                static_cast<unsigned>(conn.hops.size())};
                         done = true;
                       });
  // Setup takes well under a microsecond; stop once it completes instead
  // of simulating the background traffic for the whole 200 us budget.
  while (!done && simulator.now() < t0 + 200_us) {
    simulator.run_until(simulator.now() + 1_us);
  }
  return out;
}

void print_e13() {
  std::printf("E13 — GS connection setup through BE programming packets "
              "(host at (0,0))\n\n");
  TablePrinter table({"path hops", "routers programmed",
                      "setup latency, idle net [ns]",
                      "setup latency, loaded net [ns]"});
  for (const SetupRow& r : programming_setup()) {
    table.add_row({std::to_string(r.hops),
                   std::to_string(r.routers_programmed),
                   TablePrinter::fmt(sim::to_ns(r.idle_ps), 1),
                   TablePrinter::fmt(sim::to_ns(r.loaded_ps), 1)});
  }
  table.print();
  std::printf(
      "\nSetup time is dominated by the farthest programming packet "
      "(latency grows with\npath length) and, being best-effort, degrades "
      "under BE load — acceptable because\nconnection setup is an "
      "infrequent reconfiguration event, while the connections\n"
      "themselves then run with hard guarantees.\n");
}
}  // namespace

std::vector<SetupRow> programming_setup() {
  std::vector<SetupRow> rows;
  for (unsigned hops : {1u, 2u, 3u, 4u, 6u}) {
    const auto idle = setup_latency(hops, false);
    const auto loaded = setup_latency(hops, true);
    rows.push_back({hops, idle.second, idle.first, loaded.first});
  }
  return rows;
}

// --- E15 ---------------------------------------------------------------------

namespace {
SignalingOutcome run_link(LinkSignaling s, sim::Time skew) {
  MeshConfig m = mesh(2, 1);
  m.link_signaling = s;
  m.link_skew_ps = skew;
  try {
    const auto [flits, p50] = single_vc_run(m, 4200_ns);
    const Delivered d{flits - single_vc_run(m, 200_ns).first, 4000_ns};
    return {true, d.mhz(), p50};
  } catch (const ModelError&) {
    return {};  // bundled-data timing closure failed
  }
}

void print_e15() {
  std::printf("E15 — Bundled data vs 1-of-4 delay-insensitive link "
              "signaling (Section 6 outlook)\n\n");
  std::printf("forward data wires per link: bundled %u, 1-of-4 %u "
              "(plus ack + 8 unlock + 1 credit each)\n\n",
              link_forward_wires(LinkSignaling::kBundledData),
              link_forward_wires(LinkSignaling::kOneOfFour));
  TablePrinter table({"wire skew [ps]", "bundled: single VC [MHz]",
                      "bundled p50 [ns]", "1-of-4: single VC [MHz]",
                      "1-of-4 p50 [ns]"});
  for (const SignalingRow& r : di_signaling()) {
    const SignalingOutcome& b = r.bundled;
    table.add_row({std::to_string(r.skew_ps),
                   b.feasible ? TablePrinter::fmt(b.single_vc_mhz, 1)
                              : "timing closure FAILS",
                   b.feasible ? TablePrinter::fmt(b.p50_ns, 2) : "-",
                   TablePrinter::fmt(r.one_of_four.single_vc_mhz, 1),
                   TablePrinter::fmt(r.one_of_four.p50_ns, 2)});
  }
  table.print();
  std::printf(
      "\nBundled data is faster and half the wires while its per-link "
      "timing assumption holds\n(skew <= 150 ps margin here), but long "
      "inter-router links are \"more sensitive to timing\nvariations\" — "
      "beyond the margin only delay-insensitive 1-of-4 keeps the network "
      "correct,\ndegrading gracefully in latency instead. That is the "
      "paper's argument for moving future\nMANGO versions to 1-of-4 "
      "signaling while keeping bundled data inside the router.\n");
}
}  // namespace

std::vector<SignalingRow> di_signaling() {
  std::vector<SignalingRow> rows;
  for (sim::Time skew : {0, 100, 150, 300, 600, 1200}) {
    rows.push_back({skew, run_link(LinkSignaling::kBundledData, skew),
                    run_link(LinkSignaling::kOneOfFour, skew)});
  }
  return rows;
}

// --- registry ----------------------------------------------------------------

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> all = {
      {"E1", "Table 1: router area by module", print_e1},
      {"E2", "Port speed at both timing corners", print_e2},
      {"E3", "Fig 3: output-buffered switch congestion", print_e3},
      {"E4", "Fair-share bandwidth on one link", print_e4},
      {"E5", "Single-VC throughput vs link length", print_e5},
      {"E6", "GS independence from BE load", print_e6},
      {"E7", "Multi-hop throughput and latency bounds", print_e7},
      {"E8", "BE router: load, path length, BE VCs", print_e8},
      {"E9", "MANGO vs TDM router", print_e9},
      {"E10", "Link-arbiter ablation", print_e10},
      {"E11", "Router area scaling", print_e11},
      {"E12", "Idle and load-proportional power", print_e12},
      {"E13", "Connection setup via programming packets", print_e13},
      {"E15", "Bundled data vs 1-of-4 links", print_e15},
  };
  return all;
}

const Experiment* find_experiment(const std::string& id) {
  for (const Experiment& e : experiments()) {
    if (id == e.id) return &e;
  }
  return nullptr;
}

}  // namespace mango::exp::paper
