// E14 — substrate performance: google-benchmark microbenchmarks of the
// event kernel and a full router hop. These bound how much simulated
// traffic the reproduction can run per wall second.
//
// The kernel benchmarks schedule typed records through one registered
// switch on sim::Simulator; BENCH_sim_kernel.json records their figures.
#include <benchmark/benchmark.h>

#include <functional>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "sim/context.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace mango;
using namespace mango::noc;

namespace {

// The workloads keep their state behind the record's p0 and re-arm by
// scheduling the record they were handed.

sim::TypedEvent record_for(void* state) {
  sim::TypedEvent ev{};
  ev.op = 1;
  ev.p0 = state;
  return ev;
}

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    simulator.set_typed_dispatcher(+[](sim::TypedEvent&) {});
    const sim::TypedEvent ev = record_for(nullptr);
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (std::uint64_t i = 0; i < n; ++i) simulator.at_typed(i, ev);
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(100000);

/// Self-scheduling chain: the pattern every clockless stage uses.
struct Chain {
  sim::Simulator* simulator;
  std::uint64_t count;
  std::uint64_t limit;
  static void fire(sim::TypedEvent& ev) {
    auto* c = static_cast<Chain*>(ev.p0);
    sim::Simulator& s = *c->simulator;
    if (++c->count < c->limit) s.at_typed(s.now() + 100, ev);
  }
};

void BM_EventChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    simulator.set_typed_dispatcher(&Chain::fire);
    Chain chain{&simulator, 0, static_cast<std::uint64_t>(state.range(0))};
    simulator.at_typed(simulator.now() + 100, record_for(&chain));
    simulator.run();
    benchmark::DoNotOptimize(chain.count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventChain)->Arg(100000);

/// Interleaved near/far delay traffic: 2000 distinct handshake-scale
/// delays (more than there are lanes, so lanes rebind and many schedules
/// take the heap) mixed with far timeouts and packet interarrivals, 64
/// concurrent event chains.
struct MixedHorizon {
  sim::Rng rng{7};
  std::uint64_t count = 0;
  std::uint64_t limit = 0;
  /// Next delay, or false once the budget is spent.
  bool next_delay(sim::Time& d) {
    if (++count >= limit) return false;
    const bool far = rng.next_below(8) == 0;
    d = far ? 1000000 + rng.next_below(5000000) : 60 + rng.next_below(2000);
    return true;
  }
};

void BM_EventMixedHorizon(benchmark::State& state) {
  // The record's handler calls a std::function, which keeps the figures
  // comparable with the BENCH_sim_kernel.json entries.
  struct Typed {
    std::function<void()> body;
    static void fire(sim::TypedEvent& ev) {
      static_cast<Typed*>(ev.p0)->body();
    }
  };
  for (auto _ : state) {
    sim::Simulator simulator;
    simulator.set_typed_dispatcher(&Typed::fire);
    MixedHorizon mix;
    mix.limit = static_cast<std::uint64_t>(state.range(0));
    Typed t;
    const sim::TypedEvent ev = record_for(&t);
    t.body = [&simulator, &mix, ev] {
      sim::Time d = 0;
      if (mix.next_delay(d)) simulator.at_typed(simulator.now() + d, ev);
    };
    for (int i = 0; i < 64; ++i) {
      simulator.at_typed(simulator.now() + mix.rng.next_below(2000), ev);
    }
    simulator.run();
    benchmark::DoNotOptimize(mix.count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventMixedHorizon)->Arg(100000);

void BM_GsFlitHop(benchmark::State& state) {
  // Full-stack cost of one GS flit across one router hop.
  for (auto _ : state) {
    state.PauseTiming();
    sim::SimContext ctx;
    NetworkConfig cfg{TopologySpec::mesh(2, 1)};
    Network net(ctx, cfg);
    ConnectionManager mgr(net, NodeId{0, 0});
    const Connection& c = mgr.open_direct({0, 0}, {1, 0});
    std::uint64_t delivered = 0;
    // Zero-service measurement sink (the attach_hub style): the NA folds
    // the final wire hop instead of scheduling a handler event per flit.
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
BENCHMARK(BM_GsFlitHop)->Arg(10000);

void BM_RngDraws(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(1000));
  }
}
BENCHMARK(BM_RngDraws);

}  // namespace

BENCHMARK_MAIN();
