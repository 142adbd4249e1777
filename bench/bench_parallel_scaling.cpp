// Parallel kernel scaling: the scale-8x8 mesh scenario (64 nodes,
// uniform BE + GS ring — the largest grid the 15-code source-route
// header admits) run end to end at 1, 2 and 4 worker shards. Items
// processed are dispatched simulation events, so the benchmark's
// items_per_second column is the events/s figure BENCH_topology.json
// tracks and CI's perf-smoke floor-gates (>= 1.6x at 2 shards, >= 2.5x
// at 4 on a machine with the cores to back it).
//
// Stats are byte-identical across shard counts — the scaling run
// doubles as a determinism check and aborts if any shard count
// disagrees with the single-kernel reference.
//
// Two scale-1k rungs (mesh-32x32 and cmesh-32x32c4, table-routed BE
// headers) repeat the ladder at a thousand routers, where the window
// count and boundary fan-in dwarf the 8x8 grid — this is the rung the
// acceptance speedup targets are measured on. A barrier-cost microbench
// (ns/window on four kernels with one event in every window) isolates
// the per-window synchronisation overhead the spin barrier is meant to
// cut.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "exp/scenario.hpp"
#include "sim/parallel.hpp"

using namespace mango;

namespace {

exp::ScenarioSpec scale_spec(noc::TopologyKind kind, unsigned shards) {
  exp::ScenarioSpec spec;
  spec.name = "bench-parallel-8x8";
  spec.topology = kind;
  spec.width = 8;
  spec.height = 8;
  spec.pattern = noc::BePattern::kUniform;
  spec.be_interarrival_ps = 8000;
  spec.gs_set = noc::GsSetKind::kRing;
  spec.gs_period_ps = 8000;
  spec.router.be_vcs = 2;
  spec.duration_ps = 500000;
  spec.shards = shards;
  return spec;
}

void run_scaling(benchmark::State& state, noc::TopologyKind kind,
                 exp::ScenarioStats& reference, bool& have_reference) {
  const auto shards = static_cast<unsigned>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const exp::ScenarioResult r = run_scenario(scale_spec(kind, shards));
    if (!r.ok()) {
      state.SkipWithError(r.error.c_str());
      return;
    }
    if (shards == 1 && !have_reference) {
      reference = r.stats;
      have_reference = true;
    } else if (have_reference && r.stats != reference) {
      state.SkipWithError("stats differ from the single-kernel reference");
      return;
    }
    events += r.stats.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void BM_Scale8x8MeshShards(benchmark::State& state) {
  static exp::ScenarioStats reference;  // filled by the shards=1 run
  static bool have_reference = false;
  run_scaling(state, noc::TopologyKind::kMesh, reference, have_reference);
}
void BM_Scale8x8TorusShards(benchmark::State& state) {
  static exp::ScenarioStats reference;
  static bool have_reference = false;
  run_scaling(state, noc::TopologyKind::kTorus, reference, have_reference);
}
// Register shards=1 first so every later shard count is checked against
// the single-kernel reference stats.
BENCHMARK(BM_Scale8x8MeshShards)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Scale8x8TorusShards)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- scale-1k rungs ---------------------------------------------------

exp::ScenarioSpec scale1k_spec(noc::TopologyKind kind, unsigned shards) {
  exp::ScenarioSpec spec;
  spec.topology = kind;
  spec.width = 32;
  spec.height = 32;
  if (kind == noc::TopologyKind::kCMesh) {
    spec.name = "bench-parallel-cmesh-32x32c4";
    spec.concentration = 4;
  } else {
    spec.name = "bench-parallel-mesh-32x32";
  }
  spec.pattern = noc::BePattern::kUniform;
  spec.be_interarrival_ps = 20000;
  spec.gs_set = noc::GsSetKind::kRing;
  spec.gs_period_ps = 8000;
  spec.duration_ps = 60000;  // short horizon: ~1k routers is the cost
  spec.shards = shards;
  return spec;
}

void run_scaling_1k(benchmark::State& state, noc::TopologyKind kind,
                    exp::ScenarioStats& reference, bool& have_reference) {
  const auto shards = static_cast<unsigned>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const exp::ScenarioResult r = run_scenario(scale1k_spec(kind, shards));
    if (!r.ok()) {
      state.SkipWithError(r.error.c_str());
      return;
    }
    if (shards == 1 && !have_reference) {
      reference = r.stats;
      have_reference = true;
    } else if (have_reference && r.stats != reference) {
      state.SkipWithError("stats differ from the single-kernel reference");
      return;
    }
    events += r.stats.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void BM_Scale1kMeshShards(benchmark::State& state) {
  static exp::ScenarioStats reference;
  static bool have_reference = false;
  run_scaling_1k(state, noc::TopologyKind::kMesh, reference, have_reference);
}
void BM_Scale1kCMeshShards(benchmark::State& state) {
  static exp::ScenarioStats reference;
  static bool have_reference = false;
  run_scaling_1k(state, noc::TopologyKind::kCMesh, reference, have_reference);
}
BENCHMARK(BM_Scale1kMeshShards)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Scale1kCMeshShards)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- barrier-cost microbench ------------------------------------------
//
// The shard engine alone: four kernels, each holding one event that
// reschedules itself one lookahead window later, so every window runs
// (elision finds nothing to skip) and each does almost no work. Nearly
// all of the wall time is the two barrier crossings per window.
// ns_per_window is the figure the spin barrier attacks; Arg is the spin
// budget in us (0 = pure condvar). On a machine with fewer than 4 cores
// the spin path auto-disables, so both args report the condvar floor
// there.
void BM_BarrierSyncNsPerWindow(benchmark::State& state) {
  constexpr sim::Time kWindow = 1000;
  constexpr std::uint64_t kWindows = 2000;
  // Each kernel's one record re-arms itself: p0 is its own kernel.
  const sim::Simulator::TypedDispatcher tick = [](sim::TypedEvent& ev) {
    auto* kernel = static_cast<sim::Simulator*>(ev.p0);
    kernel->at_typed(kernel->now() + kWindow, ev);
  };
  sim::ShardEngine::Options opt;
  opt.spin_us = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t windows = 0;
  double ns = 0.0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<sim::Simulator>> kernels;
    std::vector<sim::Simulator*> sims;
    for (int i = 0; i < 4; ++i) {
      kernels.push_back(std::make_unique<sim::Simulator>());
      sims.push_back(kernels.back().get());
      sims.back()->set_typed_dispatcher(tick);
      sim::TypedEvent ev{};
      ev.op = 1;
      ev.p0 = sims.back();
      sims.back()->at_typed(0, ev);
    }
    sim::ControlPlane ctrl;
    ctrl.bind_engine(sims);
    sim::ShardEngine engine(sims, kWindow, ctrl, opt);
    const auto t0 = std::chrono::steady_clock::now();
    engine.run_until(kWindows * kWindow);
    const auto t1 = std::chrono::steady_clock::now();
    if (engine.windows_run() != kWindows) {
      state.SkipWithError("the engine elided a window that held an event");
      return;
    }
    windows += engine.windows_run();
    ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(windows));
  if (windows > 0) {
    state.counters["ns_per_window"] =
        benchmark::Counter(ns / static_cast<double>(windows));
  }
}
BENCHMARK(BM_BarrierSyncNsPerWindow)->Arg(0)
    ->Arg(static_cast<int>(sim::kDefaultBarrierSpinUs))
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
