// E8 — the BE router (Section 5): source-routed, wormhole, credit flow
// controlled. Uniform-random traffic on a 4x4 mesh under a load sweep,
// plus the path-length behaviour up to the 15-code header budget.
#include <cstdio>

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
  double offered_pkts_per_us;
  double delivered_pkts_per_us;
  double p50_ns;
  double p99_ns;
};

Point run_load(sim::Time interarrival_ps) {
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  MeshConfig mesh;
  mesh.width = 4;
  mesh.height = 4;
  Network net(ctx, mesh);
  MeasurementHub hub;
  attach_hub(net, hub);
  auto sources = start_uniform_be(net, interarrival_ps, /*payload=*/4,
                                  /*seed=*/31337);
  const sim::Time window = 50_us;
  hub.set_horizon(window);
  simulator.run_until(window);
  std::uint64_t generated = 0;
  for (auto& s : sources) {
    s->stop();
    generated += s->generated();
  }
  sim::Histogram all;
  std::uint64_t delivered = 0;
  for (auto& [tag, s] : hub.flows_by_tag()) {
    delivered += s->packets;
    s->latency_ns.count_into(all);
  }
  Point p{};
  p.offered_pkts_per_us = static_cast<double>(generated) / sim::to_us(window);
  p.delivered_pkts_per_us =
      static_cast<double>(delivered) / sim::to_us(window);
  p.p50_ns = all.p50();
  p.p99_ns = all.p99();
  return p;
}

/// Head-of-line blocking probe: short packets to an uncongested
/// destination share the injection point with long packets towards a
/// hotspot. With one BE VC the short packets wait behind the long ones
/// in every shared FIFO; the second BE VC lets them overtake.
double hol_probe_p99(unsigned be_vcs) {
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  MeshConfig mesh;
  mesh.width = 4;
  mesh.height = 2;
  mesh.router.be_vcs = be_vcs;
  Network net(ctx, mesh);
  MeasurementHub hub;
  attach_hub(net, hub);

  // Bulk: long packets (0,0) -> (3,0).
  BeTrafficSource::Options bulk;
  bulk.mean_interarrival_ps = 30000;
  bulk.payload_words = 24;
  bulk.fixed_dst = NodeId{3, 0};
  bulk.seed = 3;
  BeTrafficSource bulk_src(net, {0, 0}, 1, bulk);
  bulk_src.start();

  // Probe: short urgent packets (0,0) -> (0,1), on the second VC when
  // available.
  const BeVcIdx probe_vc = be_vcs > 1 ? 1 : 0;
  std::uint64_t sent = 0;
  std::function<void()> send_probe = [&] {
    if (sent >= 400) return;
    BePacket pkt = make_be_packet(net.be_route({0, 0}, {0, 1}), {1u}, 2);
    const sim::Time now = simulator.now();
    for (Flit& f : pkt.flits) f.injected_at = now;
    net.na({0, 0}).send_be_packet(std::move(pkt), probe_vc);
    ++sent;
    net.control().post_at(simulator, simulator.now() + 25000, send_probe);
  };
  net.control().post_at(simulator, simulator.now() + 1000, send_probe);

  hub.set_horizon(50_us);
  simulator.run_until(50_us);
  bulk_src.stop();
  return hub.flow(2).latency_ns.p99();
}

double run_path_length(unsigned hops) {
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  MeshConfig mesh;
  mesh.width = 8;
  mesh.height = 2;
  Network net(ctx, mesh);
  MeasurementHub hub;
  attach_hub(net, hub);
  BeTrafficSource::Options opt;
  opt.mean_interarrival_ps = 100000;  // light load: pure path latency
  opt.fixed_dst = NodeId{static_cast<std::uint16_t>(hops), 0};
  opt.payload_words = 4;
  opt.max_packets = 100;
  opt.seed = 5;
  BeTrafficSource src(net, {0, 0}, 1, opt);
  src.start();
  simulator.run();
  return hub.flow(1).latency_ns.p50();
}

}  // namespace

int main() {
  std::printf("E8 — BE router under uniform-random traffic (4x4 mesh, "
              "6-flit packets, XY source routing)\n\n");
  TablePrinter load_table({"interarrival/node", "offered [pkt/us]",
                           "delivered [pkt/us]", "p50 [ns]", "p99 [ns]"});
  struct Load {
    const char* label;
    sim::Time t;
  };
  for (const Load& l : {Load{"200 ns", 200000}, Load{"100 ns", 100000},
                        Load{"50 ns", 50000}, Load{"25 ns", 25000},
                        Load{"12 ns", 12000}, Load{"8 ns", 8000}}) {
    const Point p = run_load(l.t);
    load_table.add_row({l.label, TablePrinter::fmt(p.offered_pkts_per_us, 1),
                        TablePrinter::fmt(p.delivered_pkts_per_us, 1),
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
  for (unsigned hops : {1u, 2u, 3u, 5u, 7u}) {
    hop_table.add_row({std::to_string(hops),
                       TablePrinter::fmt(run_path_length(hops), 1)});
  }
  hop_table.print();
  std::printf("\nLatency grows linearly with hop count (one header "
              "rotation + routing cycle per hop).\n\n");

  std::printf("BE VC extension (Section 5: the reserved control bit "
              "\"can be used to indicate one of\ntwo BE VCs\"): urgent "
              "short packets sharing the injection point with bulk "
              "packets:\n\n");
  TablePrinter vc_table({"BE VCs", "urgent-probe p99 [ns]"});
  for (unsigned vcs : {1u, 2u}) {
    vc_table.add_row({std::to_string(vcs),
                      TablePrinter::fmt(hol_probe_p99(vcs), 1)});
  }
  vc_table.print();
  std::printf("\nWith a single BE VC the probe head-of-line-blocks behind "
              "bulk packets in the shared\nFIFOs; the second VC lets it "
              "overtake — the extension the paper reserves the spare\n"
              "flit bit for.\n");
  return 0;
}
