// Connection-churn workload: the runtime GS lifecycle (Poisson opens,
// holding times, drain-confirmed packet-mode closes) end to end on
// every fabric, its determinism under the parallel sweep, and the churn
// columns of the report schema.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "noc/network/report.hpp"

namespace mango::exp {
namespace {

ScenarioSpec churn_spec(noc::TopologyKind kind, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.topology = kind;
  spec.width = spec.height = 3;
  spec.router.be_vcs = 2;  // dateline classes for the wrap fabrics
  spec.pattern = noc::BePattern::kUniform;
  // Moderate BE load: the programming packets ride the same BE network,
  // so a saturated fabric stretches setup past short test horizons.
  spec.be_interarrival_ps = 16000;
  spec.gs_set = noc::GsSetKind::kNone;
  spec.churn_interarrival_ps = 20000;
  spec.churn_hold_ps = 100000;
  spec.churn_gs_period_ps = 16000;
  spec.duration_ps = 2000000;
  spec.seed = seed;
  spec.name = std::string("churn-") + noc::to_string(kind) + "-s" +
              std::to_string(seed);
  return spec;
}

// The acceptance contract: dynamic open/close on every fabric with zero
// violations on admitted connections — every generated flit of every
// churn stream is delivered in order, and lifecycles complete.
TEST(Churn, LifecycleRunsCleanOnEveryFabric) {
  for (const noc::TopologyKind kind : noc::all_topology_kinds()) {
    const ScenarioResult r = run_scenario(churn_spec(kind, 1));
    ASSERT_TRUE(r.ok()) << r.spec.name << ": " << r.error;
    const ScenarioStats& st = r.stats;
    EXPECT_GT(st.churn_requested, 10u) << r.spec.name;
    EXPECT_GT(st.churn_ready, 0u) << r.spec.name;
    EXPECT_GT(st.churn_closed, 0u) << r.spec.name;
    // Every request lands in exactly one initial bucket: admitted
    // directly (admitted - retries), parked (queued), or rejected.
    EXPECT_EQ(st.churn_requested, (st.churn_admitted - st.churn_retries) +
                                      st.churn_queued + st.churn_rejected)
        << r.spec.name;
    EXPECT_GT(st.churn_flits_generated, 0u) << r.spec.name;
    EXPECT_GT(st.churn_flits_delivered, 0u) << r.spec.name;
    EXPECT_GT(st.churn_setup_p50_ns, 0.0) << r.spec.name;
    EXPECT_EQ(st.guarantee_violations, 0u) << r.spec.name;
    EXPECT_EQ(st.gs_seq_errors, 0u) << r.spec.name;
  }
}

// Open/close storm under scarce resources: a 2x2 fabric holds at most
// 16 connections (4 source + 4 sink interfaces per node), so a fast
// open process with long holds must see rejections — and the scenario
// must stay clean (a reject leaves accounting untouched, so later opens
// keep succeeding).
TEST(Churn, StormWithRejectionsStaysClean) {
  ScenarioSpec spec;
  spec.width = 2;
  spec.height = 2;
  spec.pattern = noc::BePattern::kUniform;
  spec.be_interarrival_ps = 16000;
  spec.churn_interarrival_ps = 4000;
  spec.churn_hold_ps = 400000;
  spec.churn_gs_period_ps = 16000;
  spec.churn_queue = 0;  // reject immediately when the fabric is full
  spec.duration_ps = 2000000;
  spec.name = "churn-storm-2x2";
  const ScenarioResult r = run_scenario(spec);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.stats.churn_rejected, 0u);
  EXPECT_GT(r.stats.churn_blocking_probability, 0.0);
  EXPECT_LT(r.stats.churn_blocking_probability, 1.0);
  // Rejections never wedged admission: connections kept opening and
  // closing for the whole horizon.
  EXPECT_GT(r.stats.churn_closed, 4u);
  EXPECT_EQ(r.stats.guarantee_violations, 0u);
}

// A churn stream faster than its VC's worst-case service rate backs up
// at the NA and its drain need not finish, so the workload refuses it.
// At the worst-case corner with V = 8 the bound is 8 arbitration cycles:
// 15536 ps.
TEST(Churn, PeriodBelowVcServiceTimeIsAModelError) {
  ScenarioSpec spec = churn_spec(noc::TopologyKind::kMesh, 1);
  spec.duration_ps = 50000;
  for (const sim::Time period : {sim::Time{4000}, sim::Time{15535}}) {
    spec.churn_gs_period_ps = period;
    const ScenarioResult r = run_scenario(spec);
    EXPECT_FALSE(r.ok()) << period;
    EXPECT_NE(r.error.find("below the worst-case per-VC service time 15536"),
              std::string::npos)
        << r.error;
  }
  spec.churn_gs_period_ps = 15536;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.ok()) << r.error;
}

// Same spec, same stats — rerunning a churn scenario is bit-identical
// (the broker and workload draw only on per-context determinism).
TEST(Churn, RerunIsBitIdentical) {
  const ScenarioSpec spec = churn_spec(noc::TopologyKind::kTorus, 3);
  const ScenarioResult a = run_scenario(spec);
  const ScenarioResult b = run_scenario(spec);
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_TRUE(a.stats == b.stats);
}

// The satellite contract: an open/close storm on all four fabrics x two
// seeds serializes bit-identically for --jobs 1 and --jobs N.
TEST(Churn, StormReportsBitIdenticalAcrossJobs) {
  std::vector<ScenarioSpec> specs;
  for (const noc::TopologyKind kind : noc::all_topology_kinds()) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      specs.push_back(churn_spec(kind, seed));
    }
  }
  const SweepReport seq = SweepRunner().run(specs, 1);
  const SweepReport par = SweepRunner().run(specs, 4);
  EXPECT_EQ(seq.failed(), 0u);
  for (const ScenarioResult& r : seq.results) {
    EXPECT_EQ(r.stats.guarantee_violations, 0u) << r.spec.name;
  }
  EXPECT_EQ(seq.stats_json(), par.stats_json());
}

TEST(Churn, ReportCarriesChurnColumnsAndSchemaVersion) {
  const SweepReport rep =
      SweepRunner().run({churn_spec(noc::TopologyKind::kMesh, 1)}, 1);
  const std::string json = rep.stats_json();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  for (const char* key :
       {"\"churn_interarrival_ps\"", "\"churn_requested\"",
        "\"churn_rejected\"", "\"churn_blocking_probability\"",
        "\"churn_setup_p50_ns\"", "\"churn_setup_p99_ns\"",
        "\"churn_setup_max_ns\"", "\"churn_teardown_p99_ns\"",
        "\"churn_flits_delivered\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Churn, GridAxisExpandsWithChurnNames) {
  SweepGrid g;
  g.base.width = g.base.height = 3;
  g.churn_interarrivals_ps = {0, 20000};
  g.seeds = {1};
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].churn_interarrival_ps, 0u);
  EXPECT_EQ(specs[0].name.find("-ch"), std::string::npos);
  EXPECT_EQ(specs[1].churn_interarrival_ps, 20000u);
  EXPECT_NE(specs[1].name.find("-ch20000"), std::string::npos);
}

TEST(Churn, GsChurnPresetCoversAllFourFabrics) {
  const auto g = find_preset("gs-churn-4x4");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->base.router.be_vcs, 2u);
  const auto specs = g->expand();
  EXPECT_EQ(specs.size(), 8u);  // 4 fabrics x 2 seeds
  std::set<noc::TopologyKind> kinds;
  for (const auto& s : specs) {
    kinds.insert(s.topology);
    EXPECT_GT(s.churn_interarrival_ps, 0u) << s.name;
  }
  EXPECT_EQ(kinds.size(), 4u);
}

}  // namespace
}  // namespace mango::exp
