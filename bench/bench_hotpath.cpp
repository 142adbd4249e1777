// Hot-path microbenchmarks: the full-stack per-flit cost this PR's
// flattening targets (BENCH_sim_kernel.json tracks the trajectory).
//
//   * BM_GsHotpathHop        — one GS flit across one router hop,
//                              injection to passive sink (the same shape
//                              as bench_sim_kernel's BM_GsFlitHop).
//   * BM_GsHotpathHopLegacy  — identical workload with handshake
//                              coalescing off: the multi-event reference
//                              path, so the coalescing win is tracked in
//                              one binary.
//   * BM_BeInjectionToSink   — BE packets source-routed across a 2x2
//                              mesh from pooled storage via the
//                              materialized route tables, injection to
//                              reassembled delivery at a passive sink.
//   * BM_BeHeaderLookup      — the per-packet route cost alone: the
//                              route-table header lookup.
#include <benchmark/benchmark.h>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;

namespace {

void gs_hop(benchmark::State& state, bool coalesce) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::SimContext ctx;
    RouterConfig rc{};
    rc.coalesce_handshakes = coalesce;
    MeshConfig mesh{2, 1, rc, 1};
    Network net(ctx, mesh);
    ConnectionManager mgr(net, NodeId{0, 0});
    const Connection& c = mgr.open_direct({0, 0}, {1, 0});
    std::uint64_t delivered = 0;
    net.na({1, 0}).set_gs_handler(
        [&](LocalIfaceIdx, Flit&&, sim::Time) { ++delivered; });
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (std::uint64_t i = 0; i < n; ++i) {
      net.na({0, 0}).gs_send(c.src_iface, Flit{});
    }
    state.ResumeTiming();
    ctx.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_GsHotpathHop(benchmark::State& state) { gs_hop(state, true); }
BENCHMARK(BM_GsHotpathHop)->Arg(10000);

void BM_GsHotpathHopLegacy(benchmark::State& state) { gs_hop(state, false); }
BENCHMARK(BM_GsHotpathHopLegacy)->Arg(10000);

void BM_BeInjectionToSink(benchmark::State& state) {
  // End-to-end BE path: pooled packet assembly with a table header,
  // credit-controlled injection, two router hops (XY across the 2x2
  // mesh), per-VC reassembly, passive delivery.
  for (auto _ : state) {
    state.PauseTiming();
    sim::SimContext ctx;
    MeshConfig mesh{2, 2, RouterConfig{}, 1};
    Network net(ctx, mesh);
    sim::VectorPool<Flit>& pool = ctx.pools().vectors<Flit>();
    std::uint64_t delivered = 0;
    net.na({1, 1}).set_be_handler(
        [&](BePacket&& pkt, sim::Time) {
          ++delivered;
          pool.release(std::move(pkt.flits));
        });
    const BeHeader header = net.be_header({0, 0}, {1, 1});
    const std::uint32_t payload[4] = {1, 2, 3, 4};
    const auto n = static_cast<std::uint64_t>(state.range(0));
    state.ResumeTiming();
    // Inject in credit-sized waves: the NA queue is drained by the
    // simulation, so alternate fill and run until everything arrived.
    std::uint64_t sent = 0;
    while (delivered < n) {
      while (sent < n && net.na({0, 0}).be_queue_flits() < 64) {
        net.na({0, 0}).send_be_packet(
            make_be_packet(pool.acquire(), header, payload, 4, 7));
        ++sent;
      }
      if (!ctx.sim().step()) break;
    }
    benchmark::DoNotOptimize(delivered);
  }
  // Items are flits (5 per packet: header + 4 payload words).
  state.SetItemsProcessed(state.iterations() * state.range(0) * 5);
}
BENCHMARK(BM_BeInjectionToSink)->Arg(2000);

void BM_BeHeaderLookup(benchmark::State& state) {
  sim::SimContext ctx;
  MeshConfig mesh{4, 4, RouterConfig{}, 1};
  Network net(ctx, mesh);
  std::uint32_t acc = 0;
  std::uint16_t i = 0;
  for (auto _ : state) {
    const NodeId src{static_cast<std::uint16_t>(i & 3),
                     static_cast<std::uint16_t>((i >> 2) & 3)};
    const NodeId dst{static_cast<std::uint16_t>(3 - (i & 3)),
                     static_cast<std::uint16_t>(3 - ((i >> 2) & 3))};
    i = static_cast<std::uint16_t>((i + 1) & 15);
    if (src == dst) continue;
    acc ^= net.be_header(src, dst).word;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_BeHeaderLookup);

}  // namespace

BENCHMARK_MAIN();
