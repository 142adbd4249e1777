// FabricPlan subsystem: parallel route-table / CDG materialization is
// bit-identical for every thread count (the derived worker count
// included) and pinned to recorded digests, the plan cache keys fabrics
// canonically and builds each exactly once, and sharing a plan across
// scenarios is pure execution strategy — stats (and whole sweep
// reports) are byte-identical to per-scenario inline builds.
#include <gtest/gtest.h>

#include <algorithm>
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

// A sweep of `jobs` workers may build that many large fabrics at once,
// so each build takes hardware / jobs workers (at least one), the
// arithmetic effective_shards applies to shards; small fabrics build
// on one worker whatever the budget.
TEST(FabricPlan, BuildWorkersShareTheCoresWithSweepJobs) {
  const std::size_t big = FabricPlan::kParallelBuildNodes;
  EXPECT_EQ(FabricPlan::build_workers(big - 1, 1, 8), 1u);
  EXPECT_EQ(FabricPlan::build_workers(big, 1, 4), 4u);
  EXPECT_EQ(FabricPlan::build_workers(1024, 4, 4), 1u);
  EXPECT_EQ(FabricPlan::build_workers(1024, 2, 8), 4u);
  EXPECT_EQ(FabricPlan::build_workers(1024, 3, 8), 2u);
  EXPECT_EQ(FabricPlan::build_workers(1024, 8, 4), 1u);
  EXPECT_EQ(FabricPlan::build_workers(1024, 0, 4), 4u);
  EXPECT_EQ(FabricPlan::build_workers(1024, 1, 0), 1u);
  for (unsigned hw = 1; hw <= 16; ++hw) {
    for (unsigned jobs = 1; jobs <= 16; ++jobs) {
      EXPECT_EQ(FabricPlan::build_workers(big, jobs, hw),
                exp::effective_shards(jobs, hw, hw))
          << jobs << " jobs on " << hw << " hardware threads";
      EXPECT_LE(jobs * FabricPlan::build_workers(big, jobs, hw),
                std::max(jobs, hw));
    }
  }
}

/// FNV-1a over every src != dst pair's table answers: next hop and
/// phase in both routing phases, delivery port, hop count, header
/// scheme and the encoded BE header for both local interfaces.
std::uint64_t table_digest(const RouteTable& t) {
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFFu)) * 1099511628211ull;
    }
  };
  for (std::size_t s = 0; s < t.node_count(); ++s) {
    for (std::size_t d = 0; d < t.node_count(); ++d) {
      if (s == d) continue;
      for (const unsigned phase : {0u, 1u}) {
        const NextHop nh = t.next_hop(s, d, phase);
        add(nh.port);
        add(nh.phase);
      }
      add(t.delivery_port(s, d));
      add(t.hops(s, d));
      add(t.table_routed(s, d));
      for (const LocalIface iface :
           {LocalIface::kNetworkAdapter, LocalIface::kProgramming}) {
        const BeHeader hdr = t.be_header(s, d, iface);
        add(hdr.word);
        add(hdr.table);
      }
    }
  }
  return h;
}

struct RecordedPlan {
  TopologySpec spec;
  std::uint64_t table;
  std::uint64_t edges;
  std::uint64_t cdg;
};

// The plan bytes the route-table and CDG code must keep producing,
// recorded from the serial build. The 32x32 mesh is built with the
// derived worker count, so the parallel path is pinned too.
TEST(FabricPlan, TablesAndCertificatesMatchRecordedDigests) {
  const std::vector<RecordedPlan> recorded = {
      {TopologySpec::mesh(4, 4), 0xd249ec9789e0b887ull, 68,
       0xb5db8a209b371af3ull},
      {TopologySpec::torus(4, 4), 0x49ee8640bde2f0cbull, 104,
       0x7ce8f4eaaa630673ull},
      {TopologySpec::ring(12), 0x761e50cc8cbcbb03ull, 31,
       0xea3b4b4cba7ded25ull},
      {TopologySpec::irregular(GraphSpec::irregular(16)),
       0xa60a2dc4e54c9dd3ull, 48, 0xc2989630e105a691ull},
      {TopologySpec::cmesh(4, 4, 4), 0xd249ec9789e0b887ull, 68,
       0xb5db8a209b371af3ull},
      {TopologySpec::mesh(32, 32), 0xecdf9b317c1b957bull, 7684,
       0x8e635289e20d5e93ull},
  };
  for (const RecordedPlan& r : recorded) {
    const auto plan = FabricPlan::build(r.spec, 2);
    const DeadlockCheck& cert = plan->deadlock_certificate();
    EXPECT_EQ(table_digest(plan->table()), r.table) << r.spec.label();
    EXPECT_TRUE(cert.acyclic) << r.spec.label();
    EXPECT_EQ(cert.edges, r.edges) << r.spec.label();
    EXPECT_EQ(cert.digest, r.cdg) << r.spec.label();
    EXPECT_TRUE(cert.cycle.empty()) << r.spec.label();
  }
  // The cyclic verdict: torus DOR on one BE VC.
  const auto torus = make_topology(TopologySpec::torus(4, 4));
  const auto routing = make_routing(*torus);
  const RouteTable table(*torus, *routing, 1);
  const DeadlockCheck cyclic =
      check_deadlock_freedom(*torus, table, routing->vc_class_map(), 1, 1);
  EXPECT_FALSE(cyclic.acyclic);
  EXPECT_EQ(cyclic.edges, 96u);
  EXPECT_EQ(cyclic.digest, 0x42e9594e73199fd3ull);
  EXPECT_EQ(cyclic.cycle,
            "(0,0).N/vc0 -> (0,1).N/vc0 -> (0,2).N/vc0 -> (0,3).N/vc0 -> "
            "(0,0).N/vc0");
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
        [&, i] { plans[i] = cache.get_or_build(spec, 1).plan; });
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
  const exp::SweepReport cached = exp::SweepRunner().run(specs, 2);
  EXPECT_EQ(cached.stats_json(), inline_report(specs).stats_json());
  // 2 fabrics x 3 seeds: each fabric builds once, the rest are hits.
  EXPECT_EQ(cached.plan_builds, 2u);
  EXPECT_EQ(cached.plan_hits, 4u);

  // A fabric large enough for the derived worker count to go parallel:
  // the cached plan equals the one-thread build byte for byte.
  const TopologySpec big = TopologySpec::mesh(32, 32);
  ASSERT_GE(big.node_count(), FabricPlan::kParallelBuildNodes);
  FabricPlanCache cache;
  const auto derived = cache.get_or_build(big, 2).plan;
  const auto serial = FabricPlan::build(big, 2, 1);
  EXPECT_TRUE(derived->table() == serial->table());
  const DeadlockCheck& a = derived->deadlock_certificate();
  const DeadlockCheck& b = serial->deadlock_certificate();
  EXPECT_EQ(a.acyclic, b.acyclic);
  EXPECT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.digest, b.digest);
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
