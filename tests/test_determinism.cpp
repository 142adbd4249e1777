// Determinism: identical configurations and seeds produce bit-identical
// simulations; different seeds produce different traffic.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t gs_flits = 0;
  std::uint64_t be_packets = 0;
  std::vector<sim::Time> gs_delivery_times;
  std::vector<sim::Time> be_delivery_times;
  /// Full context stats snapshot (counter name -> value), bit-exact.
  std::map<std::string, std::uint64_t> stat_counters;
  /// Per-flow hub latency samples in record order, bit-exact doubles.
  std::map<std::uint32_t, std::vector<double>> flow_latencies;
};

RunResult run_scenario(std::uint64_t seed) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  MeshConfig mesh{3, 3, RouterConfig{}, 1};
  Network net(ctx, mesh);
  ConnectionManager mgr(net, NodeId{0, 0});
  RunResult result;

  const Connection& conn = mgr.open_direct({0, 0}, {2, 2});
  net.na({2, 2}).set_gs_handler([&](LocalIfaceIdx, Flit&& f, sim::Time at) {
    ++result.gs_flits;
    result.gs_delivery_times.push_back(at);
    result.flow_latencies[f.tag].push_back(sim::to_ns(at - f.injected_at));
  });
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const NodeId n = net.node_at(i);
    // The GS handler at (2,2) coexists with a BE handler on the same NA.
    net.na(n).set_be_handler([&](BePacket&& pkt, sim::Time at) {
      ++result.be_packets;
      result.be_delivery_times.push_back(at);
      result.flow_latencies[pkt.flits.front().tag].push_back(
          sim::to_ns(at - pkt.flits.front().injected_at));
    });
  }

  GsStreamSource::Options gopt;
  gopt.period_ps = 5000;
  gopt.max_flits = 100;
  GsStreamSource gs(net.na({0, 0}), conn.src_iface, 1, gopt);
  gs.start();

  BeTrafficSource::Options bopt;
  bopt.mean_interarrival_ps = 15000;
  bopt.max_packets = 50;
  bopt.seed = seed;
  BeTrafficSource be(net, {1, 1}, 2, bopt);
  be.start();

  sim.run();
  result.events = sim.events_dispatched();
  result.stat_counters = ctx.stats().counters();
  return result;
}

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  const RunResult a = run_scenario(42);
  const RunResult b = run_scenario(42);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.gs_flits, b.gs_flits);
  EXPECT_EQ(a.be_packets, b.be_packets);
  ASSERT_EQ(a.gs_delivery_times.size(), b.gs_delivery_times.size());
  for (std::size_t i = 0; i < a.gs_delivery_times.size(); ++i) {
    ASSERT_EQ(a.gs_delivery_times[i], b.gs_delivery_times[i]);
  }
}

// Beyond delivery timestamps, the *entire* stats surface (context
// registry counters and per-flow latency samples, bit-exact doubles)
// must be reproducible. Together with the sorted-key oracle in
// tests/test_scheduler.cpp, which checks the kernel's dispatch order
// event by event, this pins simulation results to that order.
TEST(Determinism, FullStatsSnapshotIsBitIdentical) {
  const RunResult a = run_scenario(42);
  const RunResult b = run_scenario(42);
  EXPECT_EQ(a.stat_counters, b.stat_counters);
  EXPECT_EQ(a.stat_counters.at("traffic.gs_flits_generated"), 100u);
  EXPECT_EQ(a.stat_counters.at("traffic.be_packets_generated"), 50u);
  ASSERT_EQ(a.flow_latencies.size(), b.flow_latencies.size());
  for (const auto& [tag, samples] : a.flow_latencies) {
    const auto it = b.flow_latencies.find(tag);
    ASSERT_NE(it, b.flow_latencies.end()) << "flow " << tag;
    ASSERT_EQ(samples.size(), it->second.size()) << "flow " << tag;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      // Bit-exact double equality is intentional: same event order, same
      // arithmetic, same results.
      ASSERT_EQ(samples[i], it->second[i]) << "flow " << tag << " sample " << i;
    }
  }
}

TEST(Determinism, DifferentSeedsChangeBeTraffic) {
  const RunResult a = run_scenario(1);
  const RunResult b = run_scenario(2);
  // The GS stream is rate-driven and unaffected in count; the BE source
  // still injects its 50 packets.
  EXPECT_EQ(a.gs_flits, b.gs_flits);
  EXPECT_EQ(a.be_packets, b.be_packets);
  // ...but the exponential interarrivals differ, so delivery timestamps
  // cannot coincide.
  EXPECT_NE(a.be_delivery_times, b.be_delivery_times);
}

TEST(Determinism, GsDeliveryTimestampsAreMonotonic) {
  const RunResult a = run_scenario(7);
  for (std::size_t i = 1; i < a.gs_delivery_times.size(); ++i) {
    EXPECT_LE(a.gs_delivery_times[i - 1], a.gs_delivery_times[i]);
  }
}

}  // namespace
}  // namespace mango::noc
