// Connection-lifecycle microbenchmarks (BENCH_sweep.json tracks the
// trajectory; the CI perf-smoke job enforces a 1/3 floor).
//
//   * BM_ConnectionOpenCloseViaPackets — full broker round trip on a
//     4x4 mesh: request_open through BE programming packets, Ready,
//     request_close through the Draining dwell and clear packets,
//     Closed. Reports the simulated setup time and the scheduler events
//     per round trip as counters (the "programming-path cost" of
//     DESIGN.md section 6).
//   * BM_ConnectionOpenCloseDirect — the same lifecycle with zero-time
//     direct table writes: the pure bookkeeping cost of plan/commit/
//     release and the broker ledger, no simulated network traffic.
#include <benchmark/benchmark.h>

#include "noc/network/connection_broker.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;

namespace {

void open_close(benchmark::State& state, bool packet_mode) {
  sim::SimContext ctx;
  NetworkConfig net_cfg{TopologySpec::mesh(4, 4)};
  Network net(ctx, net_cfg);
  ConnectionManager mgr(net, NodeId{0, 0});
  BrokerConfig cfg;
  cfg.packet_mode = packet_mode;
  ConnectionBroker broker(net, mgr, cfg);

  std::uint64_t round_trips = 0;
  std::uint64_t setup_ps_total = 0;
  std::uint64_t events_before = 0;
  std::uint64_t events_total = 0;
  for (auto _ : state) {
    events_before = ctx.sim().events_dispatched();
    const sim::Time t0 = ctx.now();
    bool ready = false;
    sim::Time ready_at = 0;
    const RequestId id = broker.request_open(
        {3, 0}, {0, 3}, [&](RequestId, const Connection&) {
          ready = true;
          ready_at = ctx.now();
        });
    ctx.run();
    benchmark::DoNotOptimize(ready);
    setup_ps_total += ready_at - t0;
    broker.request_close(id);
    ctx.run();
    events_total += ctx.sim().events_dispatched() - events_before;
    ++round_trips;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(round_trips));
  if (round_trips > 0) {
    state.counters["setup_sim_ns"] = benchmark::Counter(
        static_cast<double>(setup_ps_total) / 1e3 /
        static_cast<double>(round_trips));
    state.counters["events_per_roundtrip"] = benchmark::Counter(
        static_cast<double>(events_total) / static_cast<double>(round_trips));
  }
}

void BM_ConnectionOpenCloseViaPackets(benchmark::State& state) {
  open_close(state, true);
}
BENCHMARK(BM_ConnectionOpenCloseViaPackets);

void BM_ConnectionOpenCloseDirect(benchmark::State& state) {
  open_close(state, false);
}
BENCHMARK(BM_ConnectionOpenCloseDirect);

}  // namespace

BENCHMARK_MAIN();
