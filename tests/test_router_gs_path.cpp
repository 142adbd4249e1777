// Integration tests of the GS data path across two routers (Section 4).
#include <gtest/gtest.h>

#include <vector>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

struct GsPathFixture : ::testing::Test {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  NetworkConfig cfg{TopologySpec::mesh(2, 1)};
  Network net{ctx, cfg};
  ConnectionManager mgr{net, NodeId{0, 0}};
  const StageDelays& d = net.router({0, 0}).delays();

  std::vector<Flit> delivered;
  std::vector<sim::Time> delivery_times;

  void SetUp() override {
    net.na({1, 0}).set_gs_handler([this](LocalIfaceIdx, Flit&& f,
                                         sim::Time at) {
      delivered.push_back(f);
      delivery_times.push_back(at);
    });
  }
};

TEST_F(GsPathFixture, SingleFlitEndToEndWithExactLatency) {
  const Connection& conn = mgr.open_direct({0, 0}, {1, 0});
  EXPECT_TRUE(conn.ready());
  EXPECT_EQ(conn.link_hops(), 1u);

  Flit f;
  f.data = 0xABCD;
  f.injected_at = sim.now();
  net.na({0, 0}).gs_send(conn.src_iface, f);
  sim.run();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].data, 0xABCDu);

  // The full deterministic path: NA wire, switch at R0, buffer advance,
  // request, grant (idle arbiter: immediate), merge + link, switch at R1,
  // buffer advance, NA wire.
  const sim::Time media = d.split_fwd + d.switch_fwd + d.unshare_fwd;
  const sim::Time expected = d.na_link_fwd + media + d.buf_advance +
                             d.req_fwd + (d.merge_fwd + d.link_fwd) + media +
                             d.buf_advance + d.na_link_fwd;
  EXPECT_EQ(delivery_times[0], expected);
}

TEST_F(GsPathFixture, StreamArrivesCompleteAndInOrder) {
  const Connection& conn = mgr.open_direct({0, 0}, {1, 0});
  constexpr int kFlits = 200;
  for (int i = 0; i < kFlits; ++i) {
    Flit f;
    f.data = static_cast<std::uint32_t>(i);
    f.seq = static_cast<std::uint64_t>(i);
    net.na({0, 0}).gs_send(conn.src_iface, f);
  }
  sim.run();
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kFlits));
  for (int i = 0; i < kFlits; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)].data,
              static_cast<std::uint32_t>(i));
  }
}

TEST_F(GsPathFixture, SteadyStateRateIsTheSingleVcCycle) {
  const Connection& conn = mgr.open_direct({0, 0}, {1, 0});
  constexpr int kFlits = 100;
  for (int i = 0; i < kFlits; ++i) {
    net.na({0, 0}).gs_send(conn.src_iface, Flit{});
  }
  sim.run();
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kFlits));
  // Steady-state spacing between deliveries = the share-control loop of
  // a single VC (Section 4.3: a single VC cannot use the full link).
  const sim::Time spacing =
      delivery_times[kFlits - 1] - delivery_times[kFlits - 2];
  EXPECT_EQ(spacing, d.single_vc_cycle());
  EXPECT_GT(spacing, d.arb_cycle);  // strictly below link capacity
}

TEST_F(GsPathFixture, ReverseFlowKeepsAtMostOneFlitInTheMedia) {
  const Connection& conn = mgr.open_direct({0, 0}, {1, 0});
  // Saturate; the unsharebox-collision assertion inside VcBuffer would
  // fire if the share-based protocol ever admitted two flits of this VC
  // into the media. Completing without a throw proves the invariant.
  for (int i = 0; i < 500; ++i) {
    net.na({0, 0}).gs_send(conn.src_iface, Flit{});
  }
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(delivered.size(), 500u);
}

TEST_F(GsPathFixture, SlowConsumerBackpressuresWithoutLoss) {
  const Connection& conn = mgr.open_direct({0, 0}, {1, 0});
  // The destination core consumes 10x slower than the link.
  net.na({1, 0}).set_gs_sink_service(10 * d.arb_cycle);
  for (int i = 0; i < 50; ++i) {
    Flit f;
    f.data = static_cast<std::uint32_t>(i);
    net.na({0, 0}).gs_send(conn.src_iface, f);
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)].data,
              static_cast<std::uint32_t>(i));
  }
  // Delivery rate was consumer-limited.
  const sim::Time spacing = delivery_times[49] - delivery_times[48];
  EXPECT_GE(spacing, 10 * d.arb_cycle);
}

TEST_F(GsPathFixture, MissingForwardEntryIsDetected) {
  // Program only the NA steering, not the router tables: the first grant
  // cannot find steering bits for the next hop.
  const VcBufferId buf{port_of(Direction::kEast), 0};
  Router& r0 = net.router({0, 0});
  r0.table().set_reverse(buf, ReverseEntry{kLocalPort, 0});
  net.na({0, 0}).configure_gs_source(
      0, r0.switching().encode_gs(kLocalPort, buf));
  net.na({0, 0}).gs_send(0, Flit{});
  EXPECT_THROW(sim.run(), mango::ModelError);
}

TEST_F(GsPathFixture, TwoConnectionsOnOneLinkDoNotInterfere) {
  const Connection& c1 = mgr.open_direct({0, 0}, {1, 0});
  const Connection& c2 = mgr.open_direct({0, 0}, {1, 0});
  EXPECT_NE(c1.src_iface, c2.src_iface);
  EXPECT_NE(c1.hops[0].second.vc, c2.hops[0].second.vc);
  for (int i = 0; i < 100; ++i) {
    Flit f1;
    f1.tag = 1;
    f1.seq = static_cast<std::uint64_t>(i);
    net.na({0, 0}).gs_send(c1.src_iface, f1);
    Flit f2;
    f2.tag = 2;
    f2.seq = static_cast<std::uint64_t>(i);
    net.na({0, 0}).gs_send(c2.src_iface, f2);
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 200u);
  // Per-flow ordering preserved.
  std::uint64_t next1 = 0, next2 = 0;
  for (const Flit& f : delivered) {
    if (f.tag == 1) {
      EXPECT_EQ(f.seq, next1++);
    }
    if (f.tag == 2) {
      EXPECT_EQ(f.seq, next2++);
    }
  }
  EXPECT_EQ(next1, 100u);
  EXPECT_EQ(next2, 100u);
}

}  // namespace
}  // namespace mango::noc
