// Quickstart: build a 2x2 MANGO mesh, open one GS connection, stream
// data across it and print the measured service.
//
//   $ ./example_quickstart
//
// Walks through the full public API: Simulator -> Network ->
// ConnectionManager -> NA traffic -> MeasurementHub.
#include <cstdio>

#include "model/timing.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/report.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;
using sim::operator""_ns;

int main() {
  // 1. An event kernel and a 2x2 mesh of MANGO routers with the paper's
  //    demonstrator configuration (8 VCs/port, fair-share arbitration,
  //    worst-case 0.12 um timing).
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  NetworkConfig cfg{TopologySpec::mesh(2, 2)};
  Network net(ctx, cfg);

  // 2. Measurement: record every delivered GS flit / BE packet by tag.
  MeasurementHub hub;
  attach_hub(net, hub);

  // 3. Open a GS connection (0,0) -> (1,1). open_direct programs the
  //    connection tables immediately; open_via_packets would do it with
  //    BE programming packets through the network instead.
  ConnectionManager mgr(net, NodeId{0, 0});
  const Connection& conn = mgr.open_direct(NodeId{0, 0}, NodeId{1, 1});
  std::printf("connection %u: %s -> %s, %u link hops, source iface %u\n",
              conn.id, to_string(conn.src).c_str(),
              to_string(conn.dst).c_str(), conn.link_hops(),
              conn.src_iface);

  // 4. Stream 10,000 flits at a constant rate of one flit per 4 ns
  //    (about half of this connection's guaranteed bandwidth).
  GsStreamSource::Options opt;
  opt.period_ps = 4000;
  opt.max_flits = 10000;
  GsStreamSource source(net.na(conn.src), conn.src_iface,
                        /*tag=*/1, opt);
  source.start();

  // 5. Run and report.
  simulator.run();
  FlowStats& s = hub.flow(1);
  const double guarantee = model::fair_share_guarantee_flits_per_ns(
      TimingCorner::kWorstCase, cfg.router.vcs_per_port);
  std::printf("\ndelivered %llu flits, %llu sequence errors\n",
              static_cast<unsigned long long>(s.flits),
              static_cast<unsigned long long>(s.seq_errors));
  std::printf("latency  p50 %.2f ns   p99 %.2f ns   max %.2f ns\n",
              s.latency_ns.p50(), s.latency_ns.p99(), s.latency_ns.max());
  std::printf("offered rate 0.250 flits/ns, guaranteed >= %.3f flits/ns\n",
              guarantee);
  std::printf("events simulated: %llu\n\n",
              static_cast<unsigned long long>(simulator.events_dispatched()));
  // 6. Network-wide activity summary.
  NetworkReport::collect(net, simulator.now()).print();
  return 0;
}
