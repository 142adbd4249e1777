// Unit + integration tests for the OCP transaction layer and GALS model.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "noc/na/ocp.hpp"
#include "noc/network/network.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

TEST(ClockDomain, NextEdgeQuantizes) {
  ClockDomain clk(1000, /*phase=*/0);
  EXPECT_EQ(clk.next_edge(0), 0u);
  EXPECT_EQ(clk.next_edge(1), 1000u);
  EXPECT_EQ(clk.next_edge(999), 1000u);
  EXPECT_EQ(clk.next_edge(1000), 1000u);
  EXPECT_EQ(clk.next_edge(1001), 2000u);
}

TEST(ClockDomain, PhaseShiftsEdges) {
  ClockDomain clk(1000, /*phase=*/300);
  EXPECT_EQ(clk.next_edge(0), 300u);
  EXPECT_EQ(clk.next_edge(300), 300u);
  EXPECT_EQ(clk.next_edge(301), 1300u);
}

TEST(ClockDomain, SyncInCostsTwoFlops) {
  ClockDomain clk(1000, 0);
  // An async event at t=1500 is seen at the 2000 edge plus one cycle.
  EXPECT_EQ(clk.sync_in(1500), 3000u);
  // Even an event exactly on an edge waits for the *next* edge.
  EXPECT_EQ(clk.sync_in(1000), 3000u);
}

TEST(OcpWords, EncodeDecodeRoundTrip) {
  const std::uint32_t w =
      ocp_encode_cmd(OcpCmd::kRead, /*tag=*/0xAB, /*low20=*/0x12345);
  EXPECT_EQ(ocp_decode_cmd(w), OcpCmd::kRead);
  EXPECT_EQ(ocp_decode_tag(w), 0xABu);
  EXPECT_EQ(ocp_decode_low20(w), 0x12345u);
}

TEST(OcpWords, Low20OverflowRejected) {
  EXPECT_THROW(ocp_encode_cmd(OcpCmd::kWrite, 0, 1u << 20), mango::ModelError);
}

TEST(OcpWords, BadCommandRejected) {
  EXPECT_THROW(ocp_decode_cmd(0x00000000u), mango::ModelError);
}

struct OcpFixture : ::testing::Test {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  NetworkConfig cfg{TopologySpec::mesh(2, 2)};
  Network net{ctx, cfg};
  // Master at (0,0) clocked at 1 GHz; slave at (1,1) clocked at 650 MHz —
  // unrelated frequencies, the GALS situation of Fig 1.
  ClockDomain master_clk{1000, 0};
  ClockDomain slave_clk{1538, 77};
  OcpMaster master{net.na({0, 0}), master_clk, "cpu"};
  OcpSlave slave{net.na({1, 1}), slave_clk, "mem", 256};

  BeRoute to_slave() { return net.be_route({0, 0}, {1, 1}); }
  BeRoute to_master() { return net.be_route({1, 1}, {0, 0}); }
};

TEST_F(OcpFixture, WriteThenReadRoundTrip) {
  OcpResponse write_resp;
  master.issue(OcpRequest{OcpCmd::kWrite, 0x20, 0xCAFE}, to_slave(),
               to_master(), [&](const OcpResponse& r) { write_resp = r; });
  sim.run();
  EXPECT_TRUE(write_resp.ok);
  EXPECT_EQ(slave.peek(0x20), 0xCAFEu);

  OcpResponse read_resp;
  master.issue(OcpRequest{OcpCmd::kRead, 0x20, 0}, to_slave(), to_master(),
               [&](const OcpResponse& r) { read_resp = r; });
  sim.run();
  EXPECT_TRUE(read_resp.ok);
  EXPECT_EQ(read_resp.data, 0xCAFEu);
  EXPECT_EQ(slave.requests_served(), 2u);
}

TEST_F(OcpFixture, CompletionArrivesOnMasterClockEdge) {
  OcpResponse resp;
  master.issue(OcpRequest{OcpCmd::kWrite, 1, 2}, to_slave(), to_master(),
               [&](const OcpResponse& r) { resp = r; });
  sim.run();
  EXPECT_GT(resp.completed_at, resp.issued_at);
  // Clocked master: completion lands on a 1 GHz edge.
  EXPECT_EQ(resp.completed_at % 1000, 0u);
}

TEST_F(OcpFixture, OutOfRangeAddressReportsError) {
  OcpResponse resp;
  master.issue(OcpRequest{OcpCmd::kRead, 0xFFF, 0}, to_slave(), to_master(),
               [&](const OcpResponse& r) { resp = r; });
  sim.run();
  EXPECT_FALSE(resp.ok);
}

TEST_F(OcpFixture, MultipleOutstandingTransactionsMatchByTag) {
  int completed = 0;
  std::uint32_t read_back[4] = {};
  for (std::uint32_t i = 0; i < 4; ++i) {
    master.issue(OcpRequest{OcpCmd::kWrite, i, 100 + i}, to_slave(),
                 to_master(), [&](const OcpResponse&) { ++completed; });
  }
  sim.run();
  for (std::uint32_t i = 0; i < 4; ++i) {
    master.issue(OcpRequest{OcpCmd::kRead, i, 0}, to_slave(), to_master(),
                 [&, i](const OcpResponse& r) {
                   ++completed;
                   read_back[i] = r.data;
                 });
  }
  sim.run();
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(master.completed(), 8u);
  EXPECT_EQ(master.outstanding(), 0u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(read_back[i], 100 + i);
}

// Reads issued back to back complete in issue order with their own data,
// also when a slow master clock holds several requests, and several
// responses, in synchronization at once.
TEST_F(OcpFixture, BackToBackReadsCompleteInIssueOrder) {
  OcpMaster slow{net.na({0, 0}), ClockDomain{20000, 0}, "slow-cpu"};
  for (std::uint32_t i = 0; i < 4; ++i) slave.poke(i, 100 + i);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> done;
  for (std::uint32_t i = 0; i < 4; ++i) {
    slow.issue(OcpRequest{OcpCmd::kRead, i, 0}, to_slave(), to_master(),
               [&, i](const OcpResponse& r) { done.emplace_back(i, r.data); });
  }
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(done[i], std::make_pair(i, 100 + i));
  }
}

TEST_F(OcpFixture, PokePeekBypassTheNetwork) {
  slave.poke(7, 0xBEEF);
  EXPECT_EQ(slave.peek(7), 0xBEEFu);
  EXPECT_THROW(slave.peek(9999), mango::ModelError);
  EXPECT_THROW(slave.poke(9999, 0), mango::ModelError);
}

}  // namespace
}  // namespace mango::noc
