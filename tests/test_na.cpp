// Unit tests for the network adapter.
#include <gtest/gtest.h>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

struct NaFixture : ::testing::Test {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  NetworkConfig cfg{TopologySpec::mesh(2, 2)};
  Network net{ctx, cfg};
  ConnectionManager mgr{net, NodeId{0, 0}};
};

TEST_F(NaFixture, SendOnUnconfiguredSourceThrows) {
  EXPECT_THROW(net.na({0, 0}).gs_send(0, Flit{}), mango::ModelError);
}

TEST_F(NaFixture, DoubleConfigureThrows) {
  mgr.open_direct({0, 0}, {1, 0});  // takes iface 0
  EXPECT_THROW(net.na({0, 0}).configure_gs_source(0, SteerBits{}),
               mango::ModelError);
}

TEST_F(NaFixture, QueueDrainsAtInterfacePace) {
  const Connection& c = mgr.open_direct({0, 0}, {1, 0});
  for (int i = 0; i < 5; ++i) net.na({0, 0}).gs_send(c.src_iface, Flit{});
  EXPECT_GE(net.na({0, 0}).gs_queue_depth(c.src_iface), 4u);
  sim.run();
  EXPECT_EQ(net.na({0, 0}).gs_queue_depth(c.src_iface), 0u);
  EXPECT_EQ(net.na({0, 0}).gs_flits_sent(c.src_iface), 5u);
}

TEST_F(NaFixture, SupplierIsPulledWhenInterfaceCanSend) {
  const Connection& c = mgr.open_direct({0, 0}, {1, 0});
  int delivered = 0;
  net.na({1, 0}).set_gs_handler(
      [&](LocalIfaceIdx, Flit&&, sim::Time) { ++delivered; });
  int supplied = 0;
  net.na({0, 0}).set_gs_supplier(c.src_iface, [&]() -> std::optional<Flit> {
    if (supplied >= 20) return std::nullopt;
    ++supplied;
    return Flit{};
  });
  sim.run();
  EXPECT_EQ(supplied, 20);
  EXPECT_EQ(delivered, 20);
}

TEST_F(NaFixture, ReleaseRequiresDrainedQueue) {
  const Connection& c = mgr.open_direct({0, 0}, {1, 0});
  net.na({0, 0}).gs_send(c.src_iface, Flit{});
  net.na({0, 0}).gs_send(c.src_iface, Flit{});
  // Queue still holds a flit (the first is in the pipeline).
  EXPECT_THROW(net.na({0, 0}).release_gs_source(c.src_iface),
               mango::ModelError);
  sim.run();
  EXPECT_NO_THROW(mgr.close_direct(c.id));
}

TEST_F(NaFixture, BePacketRoundTripReassembles) {
  BePacket received;
  net.na({1, 1}).set_be_handler([&](BePacket&& pkt, sim::Time) {
    received = std::move(pkt);
  });
  const std::vector<std::uint32_t> payload = {0xA, 0xB, 0xC, 0xD, 0xE};
  BePacket pkt = make_be_packet(net.be_route({0, 0}, {1, 1}), payload, 77);
  net.na({0, 0}).send_be_packet(std::move(pkt));
  sim.run();
  ASSERT_EQ(received.size(), payload.size() + 1);  // header + payload
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(received.flits[i + 1].data, payload[i]);
  }
  EXPECT_TRUE(received.flits.back().eop);
  EXPECT_EQ(net.na({0, 0}).be_packets_sent(), 1u);
  EXPECT_EQ(net.na({1, 1}).be_packets_received(), 1u);
}

TEST_F(NaFixture, SendingMalformedBePacketThrows) {
  BePacket empty;
  EXPECT_THROW(net.na({0, 0}).send_be_packet(std::move(empty)),
               mango::ModelError);
  BePacket no_eop;
  no_eop.flits.push_back(Flit{});
  EXPECT_THROW(net.na({0, 0}).send_be_packet(std::move(no_eop)),
               mango::ModelError);
}

TEST_F(NaFixture, ManyBePacketsQueueAndAllArrive) {
  int received = 0;
  net.na({1, 0}).set_be_handler([&](BePacket&&, sim::Time) { ++received; });
  for (int i = 0; i < 30; ++i) {
    net.na({0, 0}).send_be_packet(
        make_be_packet(net.be_route({0, 0}, {1, 0}), {1u, 2u},
                       static_cast<std::uint32_t>(i)));
  }
  sim.run();
  EXPECT_EQ(received, 30);
}

TEST_F(NaFixture, GsSourcesAreIndependent) {
  // Two sources on the same NA drive two different destinations.
  const Connection& c1 = mgr.open_direct({0, 0}, {1, 0});
  const Connection& c2 = mgr.open_direct({0, 0}, {0, 1});
  int at_10 = 0, at_01 = 0;
  net.na({1, 0}).set_gs_handler(
      [&](LocalIfaceIdx, Flit&&, sim::Time) { ++at_10; });
  net.na({0, 1}).set_gs_handler(
      [&](LocalIfaceIdx, Flit&&, sim::Time) { ++at_01; });
  for (int i = 0; i < 15; ++i) {
    net.na({0, 0}).gs_send(c1.src_iface, Flit{});
    net.na({0, 0}).gs_send(c2.src_iface, Flit{});
  }
  sim.run();
  EXPECT_EQ(at_10, 15);
  EXPECT_EQ(at_01, 15);
}

}  // namespace
}  // namespace mango::noc
