// Dynamic connection management through the ConnectionBroker: GS
// circuits are requested at run time, admitted against per-link/per-VC
// accounting, programmed with BE packets over the live network
// (Section 3), used, drained and torn down — and when the fabric is
// full, requests queue until a teardown frees the path instead of
// failing.
//
// A host CPU at (0,0) orchestrates: it opens A->B, lets it stream,
// saturates the fabric's source interfaces to show admission control
// queueing a request, then closes connections and watches the parked
// request get admitted and served.
#include <cstdio>

#include "noc/network/connection_broker.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/network/report.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;

namespace {

void announce(sim::Simulator& simulator, const char* what, RequestId id) {
  std::printf("t=%9s  request %u %s\n",
              sim::format_time(simulator.now()).c_str(), id, what);
}

}  // namespace

int main() {
  std::printf("Dynamic GS connections on a 3x3 MANGO mesh "
              "(ConnectionBroker)\n\n");
  sim::SimContext ctx;
  sim::Simulator& simulator = ctx.sim();
  MeshConfig mesh;
  mesh.width = 3;
  mesh.height = 3;
  Network net(ctx, mesh);
  MeasurementHub hub;
  attach_hub(net, hub);
  ConnectionManager mgr(net, NodeId{0, 0});
  ConnectionBroker broker(net, mgr, BrokerConfig{});

  // Phase 1: open (2,0) -> (0,2) through the network and stream on it.
  std::unique_ptr<GsStreamSource> stream1;
  const RequestId first = broker.request_open(
      {2, 0}, {0, 2}, [&](RequestId id, const Connection& conn) {
        std::printf("t=%9s  request %u ready (%u routers programmed via "
                    "BE packets)\n",
                    sim::format_time(simulator.now()).c_str(), id,
                    static_cast<unsigned>(conn.hops.size()));
        GsStreamSource::Options opt;
        opt.period_ps = 5000;
        opt.max_flits = 1000;
        stream1 = std::make_unique<GsStreamSource>(
            net.na(conn.src), conn.src_iface, /*tag=*/id, opt);
        stream1->start();
      });
  simulator.run();
  const FlowStats& s1 = hub.flow(first);
  std::printf("t=%9s  stream 1 finished: %llu flits, p99 %.2f ns, "
              "%llu seq errors\n",
              sim::format_time(simulator.now()).c_str(),
              static_cast<unsigned long long>(s1.flits),
              s1.latency_ns.p99(),
              static_cast<unsigned long long>(s1.seq_errors));

  // Phase 2: exhaust (2,0)'s four GS source interfaces, then ask for a
  // fifth connection — the broker parks it instead of failing.
  std::vector<RequestId> filler;
  for (int i = 0; i < 3; ++i) {
    filler.push_back(broker.request_open({2, 0}, {0, 0}));
  }
  simulator.run();
  const RequestId parked = broker.request_open(
      {2, 0}, {2, 2},
      [&](RequestId id, const Connection&) { announce(simulator, "admitted from the queue and programmed", id); },
      [&](RequestId id) { announce(simulator, "rejected", id); });
  std::printf("t=%9s  request %u %s (queue depth %zu, blocking so far "
              "%.2f)\n",
              sim::format_time(simulator.now()).c_str(), parked,
              to_string(broker.state(parked)),
              broker.queue_depth(), broker.stats().blocking_probability());

  // Phase 3: tear down the first connection; the drain dwell runs, the
  // clear packets free the path, and the parked request is admitted.
  broker.request_close(first, [&](RequestId id) {
    announce(simulator, "torn down, resources recycled", id);
  });
  simulator.run();

  const ConnectionLifecycleReport lc = ConnectionLifecycleReport::from(broker);
  std::printf(
      "\nlifecycle: %llu requested, %llu admitted (%llu from the queue), "
      "%llu rejected, %llu closed\n"
      "setup latency p50 %.1f ns, p99 %.1f ns; teardown p50 %.1f ns\n",
      static_cast<unsigned long long>(lc.requested),
      static_cast<unsigned long long>(lc.admitted),
      static_cast<unsigned long long>(lc.retries),
      static_cast<unsigned long long>(lc.rejected),
      static_cast<unsigned long long>(lc.closed), lc.setup_p50_ns,
      lc.setup_p99_ns, lc.teardown_p50_ns);
  std::printf("\nSetup used only BE packets through the live network; no "
              "global\ncoordination or clock was needed.\n");
  return 0;
}
