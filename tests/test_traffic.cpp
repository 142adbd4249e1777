// Tests for the traffic generators (CBR/burst/saturating GS, random and
// trace-driven BE) and the measurement hub.
#include <gtest/gtest.h>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

using sim::operator""_ns;
using sim::operator""_us;

struct TrafficFixture : ::testing::Test {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  NetworkConfig cfg{TopologySpec::mesh(3, 2)};
  Network net{ctx, cfg};
  ConnectionManager mgr{net, NodeId{0, 0}};
  MeasurementHub hub;

  void SetUp() override { attach_hub(net, hub); }
};

TEST_F(TrafficFixture, CbrSourceHitsItsRate) {
  const Connection& c = mgr.open_direct({0, 0}, {2, 0});
  GsStreamSource::Options opt;
  opt.period_ps = 10000;  // 0.1 flits/ns
  GsStreamSource src(net.na({0, 0}), c.src_iface, 1, opt);
  src.start();
  sim.run_until(50_us);
  src.stop();
  sim.run();
  // 50 us at one flit per 10 ns = ~5000 flits.
  EXPECT_NEAR(static_cast<double>(hub.flow(1).flits), 5000.0, 5.0);
  EXPECT_EQ(hub.flow(1).seq_errors, 0u);
}

TEST_F(TrafficFixture, BurstSourceAlternatesOnOff) {
  const Connection& c = mgr.open_direct({0, 0}, {1, 0});
  GsStreamSource::Options opt;
  opt.period_ps = 4000;
  opt.burst_on_ps = 20000;
  opt.burst_off_ps = 20000;  // 50% duty
  GsStreamSource src(net.na({0, 0}), c.src_iface, 2, opt);
  src.start();
  sim.run_until(80_us);
  src.stop();
  sim.run();
  // Half the CBR volume (80us / 4ns * 0.5 = ~10000 * 0.5).
  const double full = 80000.0 / 4.0;
  EXPECT_NEAR(static_cast<double>(hub.flow(2).flits), full / 2.0,
              full * 0.03);
}

TEST_F(TrafficFixture, MaxFlitsStopsTheSource) {
  const Connection& c = mgr.open_direct({0, 0}, {1, 1});
  GsStreamSource::Options opt;
  opt.period_ps = 2000;
  opt.max_flits = 123;
  GsStreamSource src(net.na({0, 0}), c.src_iface, 3, opt);
  src.start();
  sim.run();
  EXPECT_EQ(src.generated(), 123u);
  EXPECT_EQ(hub.flow(3).flits, 123u);
}

TEST_F(TrafficFixture, DelayedStartHonored) {
  const Connection& c = mgr.open_direct({0, 0}, {1, 0});
  GsStreamSource::Options opt;
  opt.period_ps = 1000;
  opt.max_flits = 10;
  GsStreamSource src(net.na({0, 0}), c.src_iface, 4, opt);
  src.start(5_us);
  // Nothing is injected before the start time, so nothing arrives by it.
  sim.run_until(5_us);
  EXPECT_EQ(hub.flow(4).flits, 0u);
  sim.run();
  EXPECT_EQ(hub.flow(4).flits, 10u);
}

TEST_F(TrafficFixture, TraceSourceReplaysExactly) {
  std::vector<TraceEntry> trace = {
      {1000, {2, 0}, 2, 0},
      {5000, {1, 1}, 3, 0},
      {5000, {2, 1}, 1, 0},
      {90000, {1, 0}, 4, 0},
  };
  BeTraceSource src(net, {0, 0}, 42, trace);
  src.start();
  // Each packet enters at its trace time: none has arrived by the first
  // entry's time, and just before 90 ns the first three are in while
  // the last is not yet injected.
  sim.run_until(1_ns);
  EXPECT_EQ(hub.flow(42).packets, 0u);
  sim.run_until(90_ns - 1);
  EXPECT_EQ(src.injected(), 3u);
  EXPECT_EQ(hub.flow(42).packets, 3u);
  sim.run();
  EXPECT_EQ(src.injected(), 4u);
  EXPECT_EQ(hub.flow(42).packets, 4u);
}

TEST_F(TrafficFixture, TraceValidation) {
  EXPECT_THROW(BeTraceSource(net, {0, 0}, 1,
                             {{0, {0, 0}, 1, 0}}),  // dst == src
               mango::ModelError);
  EXPECT_THROW(BeTraceSource(net, {0, 0}, 1,
                             {{5000, {1, 0}, 1, 0}, {1000, {1, 0}, 1, 0}}),
               mango::ModelError);  // not time-sorted
  EXPECT_THROW(BeTraceSource(net, {9, 9}, 1, {}), mango::ModelError);
}

TEST_F(TrafficFixture, EmptyTraceIsANoOp) {
  BeTraceSource src(net, {0, 0}, 7, {});
  src.start();
  sim.run();
  EXPECT_EQ(src.injected(), 0u);
}

TEST_F(TrafficFixture, BeSourceBackpressureCountsHeldPackets) {
  BeTrafficSource::Options opt;
  opt.mean_interarrival_ps = 0;  // as fast as possible
  opt.na_queue_limit = 8;
  opt.max_packets = 200;
  opt.payload_words = 8;
  BeTrafficSource src(net, {0, 0}, 9, opt);
  src.start();
  sim.run_until(20_us);
  src.stop();
  sim.run();
  EXPECT_GT(src.offered_but_held(), 0u);  // the NA queue limit engaged
  EXPECT_LE(src.generated(), 200u);
}

TEST_F(TrafficFixture, HubAggregatesAcrossFlows) {
  const Connection& a = mgr.open_direct({0, 0}, {1, 0});
  const Connection& b = mgr.open_direct({1, 0}, {2, 0});
  for (int i = 0; i < 5; ++i) {
    Flit f1;
    f1.tag = 11;
    f1.seq = static_cast<std::uint64_t>(i);
    net.na({0, 0}).gs_send(a.src_iface, f1);
    Flit f2;
    f2.tag = 22;
    f2.seq = static_cast<std::uint64_t>(i);
    net.na({1, 0}).gs_send(b.src_iface, f2);
  }
  sim.run();
  EXPECT_TRUE(hub.has_flow(11));
  EXPECT_TRUE(hub.has_flow(22));
  EXPECT_FALSE(hub.has_flow(33));
  EXPECT_EQ(hub.total_flits(), 10u);
}

}  // namespace
}  // namespace mango::noc
