// Thousand-node fabric scaling: events/s and resident memory per node
// across the 64 / 256 / 1024 / 4096-endpoint ladder BENCH_scale.json
// tracks. The first three rungs are plain meshes (8x8, 16x16, 32x32);
// the 4096-endpoint rung is the concentrated mesh 32x32c4 — 4 cores per
// router, the hornet-style multi-ingress configuration — so the
// endpoint count quadruples without quadrupling the wire graph.
//
// Each fabric also runs at 1, 2 and 4 kernel shards. Stats are
// byte-identical across shard counts; the shards>1 rows double as a
// determinism check against the single-kernel reference and abort on
// any mismatch.
#include <benchmark/benchmark.h>

#include <memory>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "exp/scenario.hpp"
#include "noc/network/network.hpp"
#include "sim/context.hpp"

using namespace mango;

namespace {

exp::ScenarioSpec ladder_spec(unsigned width, unsigned concentration,
                              unsigned shards) {
  exp::ScenarioSpec spec;
  spec.name = "bench-scale";
  spec.topology = concentration > 1 ? noc::TopologyKind::kCMesh
                                    : noc::TopologyKind::kMesh;
  spec.width = static_cast<std::uint16_t>(width);
  spec.height = static_cast<std::uint16_t>(width);
  spec.concentration = static_cast<std::uint16_t>(concentration);
  spec.pattern = noc::BePattern::kUniform;
  // Per-endpoint injection rate: keep the per-core rate constant on the
  // concentrated rung so per-router offered load stays comparable.
  spec.be_interarrival_ps = concentration > 1 ? 32000 : 8000;
  spec.gs_set = noc::GsSetKind::kRing;
  spec.gs_period_ps = 8000;
  spec.router.be_vcs = 2;
  spec.duration_ps = 200000;
  spec.shards = shards;
  return spec;
}

/// Live heap bytes (glibc mallinfo2; 0 elsewhere). Deltas across a
/// construction measure the structure's footprint exactly, immune to
/// the allocator recycling previously-freed pages (an RSS delta reads
/// zero the moment a prior fabric's freed memory covers the new one).
std::size_t live_heap_bytes() {
#if defined(__GLIBC__)
  return static_cast<std::size_t>(mallinfo2().uordblks);
#else
  return 0;
#endif
}

/// One reference-stats slot per fabric rung (shards=1 fills it; later
/// shard counts must reproduce it bit-exactly).
struct ReferenceSlot {
  exp::ScenarioStats stats;
  bool filled = false;
};

void run_ladder(benchmark::State& state, unsigned width,
                unsigned concentration, ReferenceSlot& reference) {
  const auto shards = static_cast<unsigned>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const exp::ScenarioResult r =
        run_scenario(ladder_spec(width, concentration, shards));
    if (!r.ok()) {
      state.SkipWithError(r.error.c_str());
      return;
    }
    if (shards == 1 && !reference.filled) {
      reference.stats = r.stats;
      reference.filled = true;
    } else if (reference.filled && r.stats != reference.stats) {
      state.SkipWithError("stats differ from the single-kernel reference");
      return;
    }
    events += r.stats.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void BM_ScaleMesh8x8(benchmark::State& state) {
  static ReferenceSlot ref;
  run_ladder(state, 8, 1, ref);
}
void BM_ScaleMesh16x16(benchmark::State& state) {
  static ReferenceSlot ref;
  run_ladder(state, 16, 1, ref);
}
void BM_ScaleMesh32x32(benchmark::State& state) {
  static ReferenceSlot ref;
  run_ladder(state, 32, 1, ref);
}
void BM_ScaleCMesh32x32c4(benchmark::State& state) {
  static ReferenceSlot ref;
  run_ladder(state, 32, 4, ref);
}

// Register shards=1 first so later shard counts check against the
// single-kernel reference stats.
BENCHMARK(BM_ScaleMesh8x8)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ScaleMesh16x16)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ScaleMesh32x32)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ScaleCMesh32x32c4)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Memory footprint per node: live-heap delta across Network
// construction (routers, NAs, links, the per-partition component
// arenas, the dense route table and the CDG-validated routing) divided
// by the node count. One construction per iteration; the MB_per_node
// counter is what BENCH_scale.json records — the same key on every
// rung, including the concentrated-mesh one (args are (width,
// concentration)), so downstream tooling can diff rungs uniformly.
// The third arg selects cold (0: the Network builds its plan inline,
// so the delta includes the dense route table and routing — the cost
// every scenario paid before plan sharing) vs shared-plan (1: the plan
// is prebuilt outside the measured window, so the delta is what each
// *additional* scenario on a shared fabric costs a plan-cached sweep).
void BM_ScaleMemoryPerNode(benchmark::State& state) {
  const auto width = static_cast<std::uint16_t>(state.range(0));
  const auto conc = static_cast<std::uint16_t>(state.range(1));
  const bool shared_plan = state.range(2) != 0;
  const noc::TopologySpec spec =
      conc > 1 ? noc::TopologySpec::cmesh(width, width, conc)
               : noc::TopologySpec::mesh(width, width);
  const auto plan =
      shared_plan ? noc::FabricPlan::build(spec, 2) : nullptr;
  double mb_per_node = 0.0;
  for (auto _ : state) {
    noc::NetworkConfig cfg;
    cfg.topology = spec;
    cfg.router.be_vcs = 2;
    cfg.plan = plan;
    const std::size_t before = live_heap_bytes();
    sim::SimContext ctx;
    auto net = std::make_unique<noc::Network>(ctx, cfg);
    const std::size_t after = live_heap_bytes();
    benchmark::DoNotOptimize(net);
    const double nodes = static_cast<double>(net->node_count());
    mb_per_node = static_cast<double>(after - before) / (1024.0 * 1024.0) /
                  nodes;
  }
  state.counters["MB_per_node"] = mb_per_node;
}
BENCHMARK(BM_ScaleMemoryPerNode)
    ->Args({8, 1, 0})->Args({16, 1, 0})->Args({32, 1, 0})->Args({64, 1, 0})
    ->Args({32, 4, 0})->Args({32, 1, 1})->Args({32, 4, 1})
    ->Unit(benchmark::kMillisecond);

// Fabric construction time across the endpoint ladder: what
// BENCH_scale.json's construction_seconds column records and the
// perf-smoke CI job floors. Args are (width, concentration,
// build_threads, warm): cold builds the FabricPlan (route-table and
// CDG materialization, optionally parallel) plus the Network; warm
// constructs the Network from a prebuilt shared plan — the per-scenario
// cost a plan-cached sweep pays after the first scenario on a fabric.
// A warm construction is checked bit-identical to the cold plan's
// table, so the timing rows double as a sharing-is-safe check.
void BM_ScaleConstruction(benchmark::State& state) {
  const auto width = static_cast<std::uint16_t>(state.range(0));
  const auto conc = static_cast<std::uint16_t>(state.range(1));
  const auto threads = static_cast<unsigned>(state.range(2));
  const bool warm = state.range(3) != 0;
  const noc::TopologySpec spec =
      conc > 1 ? noc::TopologySpec::cmesh(width, width, conc)
               : noc::TopologySpec::mesh(width, width);
  const auto reference = noc::FabricPlan::build(spec, 2, 1);
  for (auto _ : state) {
    noc::NetworkConfig cfg;
    cfg.topology = spec;
    cfg.router.be_vcs = 2;
    cfg.plan = warm ? reference : noc::FabricPlan::build(spec, 2, threads);
    sim::SimContext ctx;
    noc::Network net(ctx, cfg);
    benchmark::DoNotOptimize(net);
    if (!(net.plan().table() == reference->table())) {
      state.SkipWithError("plan differs from the serial reference");
      return;
    }
  }
}
BENCHMARK(BM_ScaleConstruction)
    ->Args({8, 1, 1, 0})->Args({8, 1, 4, 0})->Args({8, 1, 1, 1})
    ->Args({16, 1, 1, 0})->Args({16, 1, 4, 0})->Args({16, 1, 1, 1})
    ->Args({32, 1, 1, 0})->Args({32, 1, 4, 0})->Args({32, 1, 1, 1})
    ->Args({32, 4, 1, 0})->Args({32, 4, 4, 0})->Args({32, 4, 1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
