// FabricPlan subsystem: parallel route-table / CDG materialization is
// bit-identical for every thread count, the plan cache keys fabrics
// canonically and builds each exactly once, and sharing a plan across
// scenarios is pure execution strategy — stats (and whole sweep
// reports) are byte-identical to per-scenario inline builds, for any
// build-thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "noc/network/fabric_plan.hpp"
#include "noc/network/network.hpp"
#include "noc/network/routing.hpp"
#include "noc/network/topology.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

/// The five fabric kinds the sweep grids exercise, sized so dense
/// materialization and the exhaustive CDG walk both run.
std::vector<TopologySpec> fabric_specs() {
  return {TopologySpec::mesh(4, 4), TopologySpec::torus(4, 4),
          TopologySpec::ring(12),
          TopologySpec::irregular(GraphSpec::irregular(16)),
          TopologySpec::cmesh(4, 4, 4)};
}

TEST(ParallelMaterialization, RouteTableBitIdenticalAcrossThreadCounts) {
  for (const TopologySpec& spec : fabric_specs()) {
    const auto topo = make_topology(spec);
    const auto routing = make_routing(*topo);
    const RouteTable serial(*topo, *routing, 1);
    for (const unsigned threads : {2u, 3u, 8u}) {
      const RouteTable parallel(*topo, *routing, threads);
      EXPECT_TRUE(serial == parallel)
          << spec.label() << " with " << threads << " build threads";
    }
  }
}

TEST(ParallelMaterialization, CdgCertificateIdenticalAcrossThreadCounts) {
  for (const TopologySpec& spec : fabric_specs()) {
    const auto topo = make_topology(spec);
    const auto routing = make_routing(*topo);
    const RouteTable table(*topo, *routing, 1);
    const BeVcClassMap vc_map = routing->vc_class_map();
    const DeadlockCheck serial =
        check_deadlock_freedom(*topo, table, vc_map, 2, 1);
    EXPECT_TRUE(serial.acyclic) << spec.label();
    EXPECT_GT(serial.edges, 0u) << spec.label();
    for (const unsigned threads : {2u, 3u, 8u}) {
      const DeadlockCheck parallel =
          check_deadlock_freedom(*topo, table, vc_map, 2, threads);
      EXPECT_EQ(serial.acyclic, parallel.acyclic) << spec.label();
      EXPECT_EQ(serial.cycle, parallel.cycle) << spec.label();
      EXPECT_EQ(serial.edges, parallel.edges) << spec.label();
      EXPECT_EQ(serial.digest, parallel.digest) << spec.label();
    }
  }
}

TEST(ParallelMaterialization, CyclicVerdictIdenticalAcrossThreadCounts) {
  // A genuinely cyclic dependency graph (torus DOR without its second
  // dateline VC) must report the *same* cycle string and certificate
  // for every thread count — the parallel merge replays serial
  // insertion order, so even failure diagnostics are deterministic.
  const auto torus = make_topology(TopologySpec::torus(4, 4));
  const auto routing = make_routing(*torus);
  const RouteTable table(*torus, *routing, 1);
  const BeVcClassMap vc_map = routing->vc_class_map();
  const DeadlockCheck serial =
      check_deadlock_freedom(*torus, table, vc_map, 1, 1);
  EXPECT_FALSE(serial.acyclic);
  EXPECT_FALSE(serial.cycle.empty());
  for (const unsigned threads : {2u, 3u, 8u}) {
    const DeadlockCheck parallel =
        check_deadlock_freedom(*torus, table, vc_map, 1, threads);
    EXPECT_FALSE(parallel.acyclic);
    EXPECT_EQ(serial.cycle, parallel.cycle);
    EXPECT_EQ(serial.edges, parallel.edges);
    EXPECT_EQ(serial.digest, parallel.digest);
  }
}

TEST(FabricPlan, ParallelBuildYieldsIdenticalPlan) {
  for (const TopologySpec& spec : fabric_specs()) {
    const auto p1 = FabricPlan::build(spec, 2, 1);
    const auto p8 = FabricPlan::build(spec, 2, 8);
    EXPECT_EQ(p1->key(), p8->key());
    EXPECT_TRUE(p1->table() == p8->table()) << spec.label();
    EXPECT_EQ(p1->deadlock_certificate().edges,
              p8->deadlock_certificate().edges);
    EXPECT_EQ(p1->deadlock_certificate().digest,
              p8->deadlock_certificate().digest);
    EXPECT_EQ(p1->partition_weights(), p8->partition_weights());
  }
}

TEST(FabricPlanKey, SeedAndTrafficDoNotKeyButFabricDoes) {
  exp::ScenarioSpec a;
  a.topology = TopologyKind::kTorus;
  a.router.be_vcs = 2;
  a.seed = 1;
  exp::ScenarioSpec b = a;
  b.seed = 77;
  b.be_interarrival_ps = 5000;  // traffic knobs don't key either
  b.pattern = BePattern::kTornado;
  EXPECT_EQ(fabric_plan_key(a.topology_spec(), a.router.be_vcs),
            fabric_plan_key(b.topology_spec(), b.router.be_vcs));

  exp::ScenarioSpec c = a;
  c.router.be_vcs = 3;  // gates the dateline classes -> distinct fabric
  EXPECT_NE(fabric_plan_key(a.topology_spec(), a.router.be_vcs),
            fabric_plan_key(c.topology_spec(), c.router.be_vcs));

  exp::ScenarioSpec d = a;
  d.width = 8;
  EXPECT_NE(fabric_plan_key(a.topology_spec(), a.router.be_vcs),
            fabric_plan_key(d.topology_spec(), d.router.be_vcs));

  // Same label, different edges: the key must see the edge list.
  GraphSpec g1 = GraphSpec::irregular(8);
  GraphSpec g2 = g1;
  g2.edges.pop_back();
  const TopologySpec t1 = TopologySpec::irregular(g1);
  const TopologySpec t2 = TopologySpec::irregular(g2);
  ASSERT_EQ(t1.label(), t2.label());
  EXPECT_NE(fabric_plan_key(t1, 1), fabric_plan_key(t2, 1));
}

TEST(FabricPlanCache, HitsShareOnePlanMissesBuildAnother) {
  FabricPlanCache cache;
  const TopologySpec mesh = TopologySpec::mesh(4, 4);
  const auto first = cache.get_or_build(mesh, 1);
  EXPECT_FALSE(first.hit);
  const auto second = cache.get_or_build(mesh, 1);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.plan.get(), second.plan.get());
  EXPECT_EQ(cache.size(), 1u);

  const auto other = cache.get_or_build(mesh, 2);  // distinct be_vcs
  EXPECT_FALSE(other.hit);
  EXPECT_NE(first.plan.get(), other.plan.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FabricPlanCache, ConcurrentMissesBuildExactlyOnce) {
  FabricPlanCache cache;
  const TopologySpec spec = TopologySpec::mesh(8, 8);
  std::vector<std::shared_ptr<const FabricPlan>> plans(8);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    pool.emplace_back(
        [&, i] { plans[i] = cache.get_or_build(spec, 1, 2).plan; });
  }
  for (auto& t : pool) t.join();
  for (const auto& p : plans) EXPECT_EQ(p.get(), plans[0].get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FabricPlanCache, FailedBuildReportsTheColdBuildError) {
  // Torus with one BE VC fails deadlock validation; every scenario on
  // that fabric — first miss and cache hits alike — must see the exact
  // error a cold Network construction raises.
  std::string direct_error;
  try {
    sim::SimContext ctx;
    NetworkConfig cfg;
    cfg.topology = TopologySpec::torus(3, 3);
    cfg.router.be_vcs = 1;
    Network net(ctx, cfg);
    FAIL() << "cyclic fabric constructed";
  } catch (const ModelError& e) {
    direct_error = e.what();
  }
  FabricPlanCache cache;
  for (int pass = 0; pass < 2; ++pass) {
    try {
      cache.get_or_build(TopologySpec::torus(3, 3), 1);
      FAIL() << "cyclic fabric planned";
    } catch (const ModelError& e) {
      EXPECT_EQ(direct_error, std::string(e.what()));
    }
  }
}

TEST(Network, RejectsPlanForADifferentFabric) {
  const auto plan = FabricPlan::build(TopologySpec::mesh(4, 4), 1);
  sim::SimContext ctx;
  NetworkConfig cfg;
  cfg.topology = TopologySpec::mesh(3, 3);
  cfg.plan = plan;
  EXPECT_THROW(Network(ctx, cfg), ModelError);
}

TEST(Scenario, SharedPlanStatsMatchInlineBuild) {
  exp::ScenarioSpec spec;
  spec.topology = TopologyKind::kTorus;
  spec.router.be_vcs = 2;
  spec.duration_ps = 500000;
  spec.gs_set = GsSetKind::kRing;
  const exp::ScenarioResult inline_build = exp::run_scenario(spec);
  ASSERT_TRUE(inline_build.ok()) << inline_build.error;

  exp::RunOptions opt;
  opt.plan = FabricPlan::build(spec.topology_spec(), spec.router.be_vcs, 4);
  opt.plan_cached = true;
  const exp::ScenarioResult shared = exp::run_scenario(spec, opt);
  ASSERT_TRUE(shared.ok()) << shared.error;
  EXPECT_TRUE(inline_build.stats == shared.stats);
  EXPECT_TRUE(shared.plan_cached);
}

exp::SweepGrid plan_grid() {
  exp::SweepGrid g;
  g.base.duration_ps = 400000;
  g.base.router.be_vcs = 2;
  g.topologies = {TopologyKind::kMesh, TopologyKind::kTorus};
  g.seeds = {1, 2, 3};
  return g;
}

/// The reference a cached sweep must reproduce: every spec run alone
/// through run_scenario(spec), which builds its own plan inline.
exp::SweepReport inline_report(const std::vector<exp::ScenarioSpec>& specs) {
  exp::SweepReport report;
  for (const exp::ScenarioSpec& spec : specs) {
    report.results.push_back(exp::run_scenario(spec));
  }
  return report;
}

TEST(Sweep, CachedReportMatchesInlineBuildsAndAnyBuildThreads) {
  const auto specs = plan_grid().expand();
  exp::SweepOptions threaded;
  threaded.build_threads = 4;
  const exp::SweepReport cached = exp::SweepRunner().run(specs, 2);
  const exp::SweepReport r_thr =
      exp::SweepRunner().run(specs, 1, {}, 1, threaded);
  EXPECT_EQ(cached.stats_json(), inline_report(specs).stats_json());
  EXPECT_EQ(cached.stats_json(), r_thr.stats_json());
  // 2 fabrics x 3 seeds: each fabric builds once, the rest are hits.
  EXPECT_EQ(cached.plan_builds, 2u);
  EXPECT_EQ(cached.plan_hits, 4u);
}

TEST(Sweep, PlanCacheStaysWarmAcrossRuns) {
  const auto specs = plan_grid().expand();
  exp::SweepRunner runner;
  const exp::SweepReport cold = runner.run(specs, 1);
  EXPECT_EQ(cold.plan_builds, 2u);
  EXPECT_EQ(runner.plans_resident(), 2u);
  const exp::SweepReport warm = runner.run(specs, 1);
  EXPECT_EQ(warm.plan_builds, 0u);
  EXPECT_EQ(warm.plan_hits, specs.size());
  EXPECT_EQ(cold.stats_json(), warm.stats_json());
}

TEST(Sweep, ErrorReportsMatchInlineBuilds) {
  exp::SweepGrid g;
  g.base.topology = TopologyKind::kTorus;
  g.base.router.be_vcs = 1;  // cyclic: every scenario fails construction
  g.base.duration_ps = 200000;
  g.seeds = {1, 2};
  const auto specs = g.expand();
  const exp::SweepReport cached = exp::SweepRunner().run(specs, 1);
  const exp::SweepReport alone = inline_report(specs);
  ASSERT_EQ(cached.failed(), specs.size());
  EXPECT_EQ(cached.stats_json(), alone.stats_json());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(cached.results[i].error, alone.results[i].error);
    EXPECT_FALSE(cached.results[i].error.empty());
  }
}

}  // namespace
}  // namespace mango::noc
