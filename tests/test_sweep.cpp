// exp/ sweep subsystem: grid expansion, scenario execution, and the
// core parallel-determinism contract — the same spec list produces a
// bit-identical report for any worker count.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "noc/network/report.hpp"

namespace mango::exp {
namespace {

SweepGrid small_grid() {
  SweepGrid g;
  g.base.duration_ps = 500000;  // 0.5 us keeps the test quick
  g.base.be_interarrival_ps = 10000;
  g.base.gs_period_ps = 8000;
  g.meshes = {{2, 2}, {3, 3}};
  g.patterns = {noc::BePattern::kUniform, noc::BePattern::kTornado,
                noc::BePattern::kBursty};
  g.gs_sets = {noc::GsSetKind::kRing};
  g.seeds = {1, 2};
  return g;
}

TEST(SweepGrid, ExpandsCartesianProductInStableOrder) {
  const auto specs = small_grid().expand();
  ASSERT_EQ(specs.size(), 2u * 3u * 1u * 1u * 2u);
  EXPECT_EQ(specs[0].name, "uniform-mesh-2x2-ia10000-gs:ring-s1");
  EXPECT_EQ(specs[1].name, "uniform-mesh-2x2-ia10000-gs:ring-s2");
  EXPECT_EQ(specs.back().name, "bursty-mesh-3x3-ia10000-gs:ring-s2");
  // Every name is unique.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].name, specs[j].name);
    }
  }
}

TEST(SweepGrid, TopologyIsAGridAxis) {
  SweepGrid g;
  g.base.width = g.base.height = 3;
  g.base.router.be_vcs = 2;
  g.topologies = {noc::TopologyKind::kMesh, noc::TopologyKind::kTorus,
                  noc::TopologyKind::kRing};
  g.seeds = {1, 2};
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 3u * 2u);
  EXPECT_EQ(specs[0].topology, noc::TopologyKind::kMesh);
  EXPECT_NE(specs[0].name.find("mesh-3x3"), std::string::npos);
  EXPECT_EQ(specs[2].topology, noc::TopologyKind::kTorus);
  EXPECT_NE(specs[4].name.find("ring-9"), std::string::npos);
  EXPECT_EQ(specs[4].topology_spec().node_count(), 9u);
}

TEST(SweepGrid, EmptyDimensionsFallBackToBase) {
  SweepGrid g;
  g.base.width = 5;
  g.base.height = 2;
  g.base.seed = 9;
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].width, 5);
  EXPECT_EQ(specs[0].height, 2);
  EXPECT_EQ(specs[0].seed, 9u);
}

TEST(Presets, AllNamedPresetsExpandNonEmpty) {
  for (const std::string& name : preset_names()) {
    const auto g = find_preset(name);
    ASSERT_TRUE(g.has_value()) << name;
    EXPECT_FALSE(g->expand().empty()) << name;
  }
  EXPECT_FALSE(find_preset("no-such-preset").has_value());
}

TEST(Presets, Topologies4x4CoversAllFourFabrics) {
  const auto g = find_preset("topologies-4x4");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->base.router.be_vcs, 2u);  // dateline classes for torus/ring
  const auto specs = g->expand();
  std::set<noc::TopologyKind> kinds;
  for (const auto& s : specs) {
    kinds.insert(s.topology);
    // Only patterns defined on every fabric belong on this grid.
    EXPECT_TRUE(noc::pattern_supported(
        s.pattern, *noc::make_topology(s.topology_spec())))
        << s.name;
  }
  EXPECT_EQ(kinds.size(), 4u);
}

// Every topology kind runs end to end — BE and GS traffic delivered,
// zero guarantee violations — in one short scenario each.
TEST(RunScenario, EveryTopologyDeliversTrafficAndMeetsGuarantees) {
  for (const noc::TopologyKind kind : noc::all_topology_kinds()) {
    ScenarioSpec spec;
    spec.topology = kind;
    spec.width = spec.height = 3;
    spec.router.be_vcs = 2;
    spec.pattern = noc::BePattern::kUniform;
    spec.be_interarrival_ps = 10000;
    spec.gs_set = noc::GsSetKind::kRing;
    spec.gs_period_ps = 8000;
    spec.duration_ps = 500000;
    spec.name = std::string("unit-") + noc::to_string(kind);
    const ScenarioResult r = run_scenario(spec);
    ASSERT_TRUE(r.ok()) << spec.name << ": " << r.error;
    EXPECT_GT(r.stats.be_packets_delivered, 0u) << spec.name;
    EXPECT_GT(r.stats.gs_flits_delivered, 0u) << spec.name;
    EXPECT_EQ(r.stats.gs_seq_errors, 0u) << spec.name;
    EXPECT_EQ(r.stats.guarantee_violations, 0u) << spec.name;
  }
}

// Node labels are 16-bit: a ring/graph fabric bigger than 65535 nodes
// must be rejected, not silently truncated to a wrong-size fabric.
TEST(RunScenario, OversizedRingFabricIsRejectedNotTruncated) {
  ScenarioSpec spec;
  spec.topology = noc::TopologyKind::kRing;
  spec.width = spec.height = 300;  // 90000 nodes
  EXPECT_THROW(spec.topology_spec(), mango::ModelError);
  const ScenarioResult r = run_scenario(spec);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("at most 65535"), std::string::npos) << r.error;
}

// A pattern that is undefined on the fabric must surface as a captured
// scenario error, not silent remapping.
TEST(RunScenario, IncompatiblePatternFailsLoudly) {
  ScenarioSpec spec;
  spec.topology = noc::TopologyKind::kRing;
  spec.router.be_vcs = 2;
  spec.pattern = noc::BePattern::kTranspose;
  spec.duration_ps = 100000;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("not defined on topology"), std::string::npos)
      << r.error;
}

TEST(RunScenario, DeliversTrafficAndMeetsGuarantees) {
  ScenarioSpec spec;
  spec.name = "unit";
  spec.width = spec.height = 3;
  spec.pattern = noc::BePattern::kUniform;
  spec.be_interarrival_ps = 10000;
  spec.gs_set = noc::GsSetKind::kRing;
  spec.gs_period_ps = 8000;
  spec.duration_ps = 1000000;
  const ScenarioResult r = run_scenario(spec);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.stats.events, 0u);
  EXPECT_GT(r.stats.be_packets_delivered, 0u);
  EXPECT_EQ(r.stats.gs_connections, 9u);
  EXPECT_GT(r.stats.gs_flits_delivered, 0u);
  EXPECT_EQ(r.stats.gs_seq_errors, 0u);
  EXPECT_EQ(r.stats.guarantee_violations, 0u);
  EXPECT_GT(r.stats.be_latency_p99_ns, 0.0);
  EXPECT_GT(r.stats.gs_latency_p50_ns, 0.0);
  EXPECT_GT(r.stats.peak_link_utilization, 0.0);
}

// The MANGO claim the sweep harness exists to batter: GS service is
// independent of BE load. Saturating BE traffic must not push a GS
// connection set below its fair-share guarantee.
TEST(RunScenario, GsGuaranteesHoldUnderBeSaturation) {
  ScenarioSpec spec;
  spec.width = spec.height = 3;
  spec.pattern = noc::BePattern::kHotspot;
  spec.be_interarrival_ps = 1000;  // far past BE saturation
  spec.gs_set = noc::GsSetKind::kRing;
  spec.gs_period_ps = 0;  // saturate every connection
  spec.duration_ps = 2000000;
  const ScenarioResult r = run_scenario(spec);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.stats.guarantee_violations, 0u);
  EXPECT_EQ(r.stats.gs_seq_errors, 0u);
}

// Explicit connections take the gs_set's path: the ring set's pairs,
// listed in ring order at gs_period_ps, give the same stats as the set.
TEST(RunScenario, ExplicitRingConnectionsEqualTheRingSet) {
  ScenarioSpec ring;
  ring.name = "ring";
  ring.width = ring.height = 4;
  ring.be_interarrival_ps = 8000;
  ring.gs_set = noc::GsSetKind::kRing;
  ring.gs_period_ps = 8000;
  ring.duration_ps = 1000000;
  ScenarioSpec listed = ring;
  listed.gs_set = noc::GsSetKind::kNone;
  noc::GsStreamSource::Options opt;
  opt.period_ps = ring.gs_period_ps;
  for (std::uint16_t i = 0; i < 16; ++i) {
    const auto next = static_cast<std::uint16_t>((i + 1) % 16);
    listed.connections.push_back({{static_cast<std::uint16_t>(i % 4),
                                   static_cast<std::uint16_t>(i / 4)},
                                  {static_cast<std::uint16_t>(next % 4),
                                   static_cast<std::uint16_t>(next / 4)},
                                  opt});
  }
  const ScenarioResult a = run_scenario(ring);
  ScenarioResult b = run_scenario(listed);
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(a.stats.gs_connections, 16u);
  EXPECT_GT(a.stats.gs_flits_delivered, 0u);
  EXPECT_TRUE(a.stats == b.stats);
  // Byte-equal stats JSON (the spec section is the ring's on both sides).
  b.spec = a.spec;
  SweepReport ra, rb;
  ra.results.push_back(a);
  rb.results.push_back(b);
  EXPECT_EQ(ra.stats_json(), rb.stats_json());

  // One row per listed connection; the set's connections have none.
  EXPECT_TRUE(a.connections.empty());
  ASSERT_EQ(b.connections.size(), 16u);
  std::uint64_t flits = 0;
  for (const ConnectionStats& c : b.connections) {
    flits += c.flits;
    EXPECT_EQ(c.seq_errors, 0u);
    EXPECT_GT(c.latency_min_ns, 0.0);
    EXPECT_LE(c.latency_min_ns, c.latency_p50_ns);
    EXPECT_LE(c.latency_p50_ns, c.latency_p99_ns);
    EXPECT_LE(c.latency_p99_ns, c.latency_max_ns);
  }
  EXPECT_EQ(flits, b.stats.gs_flits_delivered);
}

// The guarantee check holds each explicit connection to its own source:
// its period, and its flit budget. A slow or capped connection is no
// violation; one that cannot be opened fails the run.
TEST(RunScenario, ExplicitConnectionsAreCheckedAtTheirOwnRate) {
  ScenarioSpec spec;
  spec.width = spec.height = 3;
  spec.be_interarrival_ps = sim::kTimeNever;  // no BE traffic
  spec.gs_period_ps = 4000;  // the (empty) set's rate, above 1/8 link
  spec.duration_ps = 2000000;
  noc::GsStreamSource::Options slow;
  slow.period_ps = 64000;  // a quarter of the 1/8 guarantee
  noc::GsStreamSource::Options capped;  // saturating, 20 flits
  capped.max_flits = 20;
  spec.connections = {{{0, 0}, {2, 2}, slow}, {{2, 0}, {0, 2}, capped}};
  const ScenarioResult r = run_scenario(spec);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.stats.be_packets_generated, 0u);
  EXPECT_EQ(r.stats.gs_connections, 2u);
  ASSERT_EQ(r.connections.size(), 2u);
  EXPECT_GE(r.connections[0].flits, 30u);
  EXPECT_EQ(r.connections[1].flits, 20u);
  EXPECT_EQ(r.stats.guarantee_violations, 0u);

  // Five connections from one node exceed its four local interfaces.
  spec.connections.assign(5, {{0, 0}, {2, 2}, slow});
  EXPECT_FALSE(run_scenario(spec).ok());
}

TEST(RunScenario, ErrorsAreCapturedNotThrown) {
  ScenarioSpec spec;
  spec.width = 0;  // invalid mesh
  spec.height = 0;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error.empty());
}

// Determinism under parallelism: one context per scenario, results
// keyed by spec order — the serialized stats must be bit-identical for
// --jobs 1 and --jobs 8 (and any other count).
TEST(SweepRunner, Jobs1VsJobs8AreBitIdentical) {
  const auto specs = small_grid().expand();
  const SweepReport seq = SweepRunner().run(specs, 1);
  const SweepReport par = SweepRunner().run(specs, 8);
  EXPECT_EQ(seq.jobs, 1u);
  ASSERT_EQ(seq.results.size(), par.results.size());
  for (std::size_t i = 0; i < seq.results.size(); ++i) {
    EXPECT_EQ(seq.results[i].spec.name, par.results[i].spec.name);
  }
  const std::string a = seq.stats_json();
  const std::string b = par.stats_json();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-for-byte, bit-exact doubles included
}

TEST(SweepRunner, ProgressCallbackSeesEveryScenario) {
  const auto specs = small_grid().expand();
  std::size_t calls = 0;
  std::size_t max_done = 0;
  const SweepReport rep = SweepRunner().run(
      specs, 4, [&](std::size_t done, std::size_t total,
                    const ScenarioResult& r) {
        ++calls;
        max_done = std::max(max_done, done);
        EXPECT_EQ(total, specs.size());
        EXPECT_TRUE(r.ok()) << r.error;
      });
  EXPECT_EQ(calls, specs.size());
  EXPECT_EQ(max_done, specs.size());
  EXPECT_EQ(rep.failed(), 0u);
}

// The oversubscription warning is per-runner state, not per-process: a
// runner driving several sweeps warns on the first clamp only, and a
// fresh runner in the same process warns again. (A process-wide once
// flag silently swallowed the note for every SweepRunner constructed
// after the first — test binaries and the CLI's repeat paths.)
TEST(SweepRunner, ShardClampWarnsOncePerRunnerNotPerProcess) {
  ScenarioSpec s;
  s.name = "clamp-probe";
  s.width = s.height = 2;
  s.duration_ps = 100000;
  s.gs_set = noc::GsSetKind::kNone;
  s.shards = 65535;  // always exceeds jobs x hardware threads
  SweepRunner first;
  EXPECT_FALSE(first.shard_clamp_warned());
  first.run({s}, 1);
  EXPECT_TRUE(first.shard_clamp_warned());
  first.run({s}, 1);  // still set; the warning fired once
  EXPECT_TRUE(first.shard_clamp_warned());
  SweepRunner second;  // same process, fresh runner: warns again
  EXPECT_FALSE(second.shard_clamp_warned());
  second.run({s}, 1);
  EXPECT_TRUE(second.shard_clamp_warned());
}

TEST(SweepReport, JsonShapesAreWellFormedAndTimingIsSeparated) {
  SweepGrid g;
  g.base.width = g.base.height = 2;
  g.base.duration_ps = 200000;
  g.base.gs_set = noc::GsSetKind::kRing;
  const SweepReport rep = SweepRunner().run(g.expand(), 1);
  const std::string stable = rep.stats_json();
  const std::string full = rep.full_json();
  // Deterministic output never carries wall-clock fields.
  EXPECT_EQ(stable.find("wall_ms"), std::string::npos);
  EXPECT_EQ(stable.find("scenarios_per_hour"), std::string::npos);
  EXPECT_NE(full.find("wall_ms"), std::string::npos);
  EXPECT_NE(full.find("\"jobs\""), std::string::npos);
  // Both start as an object and balance braces.
  for (const std::string* s : {&stable, &full}) {
    EXPECT_EQ((*s)[0], '{');
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < s->size(); ++i) {
      const char c = (*s)[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        --depth;
        EXPECT_GE(depth, 0);
      }
    }
    EXPECT_EQ(depth, 0);
  }
}

TEST(JsonWriter, EscapesAndNestsCorrectly) {
  std::string out;
  noc::JsonWriter w(&out);
  w.begin_object();
  w.kv("plain", std::string("a\"b\\c\nd"));
  w.key("arr");
  w.begin_array();
  w.value(std::uint64_t{18446744073709551615ull});
  w.value(-1.5);
  w.value(true);
  w.end_array();
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_NE(out.find("\\\"b\\\\c\\n"), std::string::npos);
  EXPECT_NE(out.find("18446744073709551615"), std::string::npos);
  EXPECT_NE(out.find("-1.5"), std::string::npos);
  EXPECT_NE(out.find("{}"), std::string::npos);
}

}  // namespace
}  // namespace mango::exp
