// E6 — the core GS claim (Sections 1-3): connection-oriented GS traffic
// is logically independent of best-effort load.
//
// A 4x4 mesh carries one measured GS connection while uniform-random BE
// traffic sweeps from idle to saturation. GS latency stays flat; BE
// latency degrades — packets on the same physical links.
#include <cstdio>
#include <memory>
#include <vector>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/stats.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;
using sim::operator""_us;
using sim::TablePrinter;

namespace {

struct Point {
  double gs_p50;
  double gs_p99;
  double gs_jitter;  // max - min
  std::uint64_t gs_seq_errors;
  double be_p50;
  double be_p99;
  std::uint64_t be_packets;
};

Point run(sim::Time be_interarrival_ps) {
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  MeshConfig mesh;
  mesh.width = 4;
  mesh.height = 4;
  Network net(ctx, mesh);
  ConnectionManager mgr(net, NodeId{0, 0});
  MeasurementHub hub;
  attach_hub(net, hub);

  // GS probe: (0,0) -> (3,3), one flit per 16 ns (half its guarantee).
  const Connection& c = mgr.open_direct({0, 0}, {3, 3});
  GsStreamSource::Options opt;
  opt.period_ps = 16000;
  GsStreamSource gs(net.na({0, 0}), c.src_iface, 1, opt);
  gs.start();

  std::vector<std::unique_ptr<BeTrafficSource>> be;
  if (be_interarrival_ps > 0) {
    be = start_uniform_be(net, be_interarrival_ps, /*payload=*/6,
                          /*seed=*/77);
  }

  hub.set_horizon(60_us);
  simulator.run_until(60_us);
  gs.stop();
  for (auto& s : be) s->stop();

  Point p{};
  FlowStats& g = hub.flow(1);
  p.gs_p50 = g.latency_ns.p50();
  p.gs_p99 = g.latency_ns.p99();
  p.gs_jitter = g.latency_ns.max() - g.latency_ns.quantile(0.0);
  p.gs_seq_errors = g.seq_errors;
  sim::Histogram be_all;
  for (auto& [tag, s] : hub.flows_by_tag()) {
    if (tag < kBeTagBase) continue;
    p.be_packets += s->packets;
    s->latency_ns.count_into(be_all);
  }
  p.be_p50 = be_all.p50();
  p.be_p99 = be_all.p99();
  return p;
}

}  // namespace

int main() {
  std::printf("E6 — GS independence from BE load (4x4 mesh, GS probe "
              "(0,0)->(3,3), uniform-random BE)\n\n");
  TablePrinter table({"BE interarrival/node", "BE pkts", "GS p50 [ns]",
                      "GS p99 [ns]", "GS jitter [ns]", "GS seq errs",
                      "BE p50 [ns]", "BE p99 [ns]"});
  struct Load {
    const char* label;
    sim::Time interarrival;
  };
  for (const Load& l :
       {Load{"none", 0}, Load{"80 ns", 80000}, Load{"40 ns", 40000},
        Load{"20 ns", 20000}, Load{"10 ns", 10000}, Load{"6 ns", 6000}}) {
    const Point p = run(l.interarrival);
    table.add_row({l.label, std::to_string(p.be_packets),
                   TablePrinter::fmt(p.gs_p50, 2),
                   TablePrinter::fmt(p.gs_p99, 2),
                   TablePrinter::fmt(p.gs_jitter, 2),
                   std::to_string(p.gs_seq_errors),
                   TablePrinter::fmt(p.be_p50, 1),
                   TablePrinter::fmt(p.be_p99, 1)});
  }
  table.print();
  std::printf(
      "\nGS latency and jitter are flat across the sweep: BE only uses "
      "link cycles no GS VC\nrequests (the arbiter's idle-cycle rule), so "
      "GS connections avoid \"the mutual influence that\nBE packets routed "
      "on the same logical network may experience\" (Section 2).\nBE "
      "latency, by contrast, grows with its own load.\n");
  return 0;
}
