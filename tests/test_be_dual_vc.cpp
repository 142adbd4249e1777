// Tests for the two-BE-VC extension (Section 5: the spare control bit
// "can be used to indicate one of two BE VCs ... to extend the BE
// router").
#include <gtest/gtest.h>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

using sim::operator""_us;

struct DualVcFixture : ::testing::Test {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  MeshConfig mesh;
  std::unique_ptr<Network> net;
  MeasurementHub hub;

  void SetUp() override {
    mesh.width = 3;
    mesh.height = 2;
    mesh.router.be_vcs = 2;
    net = std::make_unique<Network>(ctx, mesh);
    attach_hub(*net, hub);
  }
};

TEST_F(DualVcFixture, PacketsOnBothVcsArrive) {
  for (int i = 0; i < 10; ++i) {
    net->na({0, 0}).send_be_packet(
        make_be_packet(net->be_route({0, 0}, {2, 1}), {1u, 2u}, 100), 0);
    net->na({0, 0}).send_be_packet(
        make_be_packet(net->be_route({0, 0}, {2, 1}), {3u, 4u}, 200), 1);
  }
  sim.run();
  EXPECT_EQ(hub.flow(100).packets, 10u);
  EXPECT_EQ(hub.flow(200).packets, 10u);
}

TEST_F(DualVcFixture, ReassemblyIsPerVcDespiteInterleaving) {
  // Long packets on both VCs to the same destination interleave on the
  // links; per-VC reassembly must keep them intact.
  std::vector<std::uint32_t> pay_a(12, 0xAAAAAAAA);
  std::vector<std::uint32_t> pay_b(12, 0xBBBBBBBB);
  std::vector<BePacket> received;
  net->na({2, 0}).set_be_handler([&](BePacket&& pkt, sim::Time) {
    received.push_back(std::move(pkt));
  });
  net->na({0, 0}).send_be_packet(
      make_be_packet(net->be_route({0, 0}, {2, 0}), pay_a, 1), 0);
  net->na({0, 0}).send_be_packet(
      make_be_packet(net->be_route({0, 0}, {2, 0}), pay_b, 2), 1);
  sim.run();
  ASSERT_EQ(received.size(), 2u);
  for (const BePacket& pkt : received) {
    ASSERT_EQ(pkt.size(), 13u);
    const std::uint32_t expected =
        pkt.flits[1].tag == 1 ? 0xAAAAAAAA : 0xBBBBBBBB;
    for (std::size_t i = 1; i < pkt.size(); ++i) {
      ASSERT_EQ(pkt.flits[i].data, expected);  // no cross-VC mixing
    }
  }
}

TEST_F(DualVcFixture, SecondVcAvoidsHeadOfLineBlocking) {
  // VC0 carries a long packet towards a congested path; a VC1 packet
  // from the same source must overtake it. With one BE VC the second
  // packet would wait behind the first in the single input buffer.
  std::vector<std::uint32_t> long_payload(64, 7);
  sim::Time vc1_done = 0;
  sim::Time vc0_done = 0;
  net->na({2, 0}).set_be_handler([&](BePacket&& pkt, sim::Time at) {
    if (pkt.flits[1].tag == 1) vc0_done = at;
  });
  net->na({0, 1}).set_be_handler([&](BePacket&& pkt, sim::Time at) {
    if (pkt.flits[1].tag == 2) vc1_done = at;
  });
  // Long VC0 packet to (2,0), then a short VC1 packet to (0,1).
  net->na({0, 0}).send_be_packet(
      make_be_packet(net->be_route({0, 0}, {2, 0}), long_payload, 1), 0);
  net->na({0, 0}).send_be_packet(
      make_be_packet(net->be_route({0, 0}, {0, 1}), {9u}, 2), 1);
  sim.run();
  ASSERT_GT(vc0_done, 0u);
  ASSERT_GT(vc1_done, 0u);
  // The short VC1 packet finished long before the 65-flit VC0 packet.
  EXPECT_LT(vc1_done, vc0_done);
}

TEST_F(DualVcFixture, ProgrammingPacketsWorkOnEitherVc) {
  ConnectionManager mgr(*net, NodeId{0, 0});
  // Route a programming packet on VC1 manually.
  const VcBufferId buf{port_of(Direction::kEast), 5};
  BePacket pkt = make_be_packet(
      net->be_route({0, 0}, {1, 1}, LocalIface::kProgramming),
      {encode_prog_forward(buf, SteerBits{2, 1})});
  net->na({0, 0}).send_be_packet(std::move(pkt), 1);
  sim.run();
  EXPECT_TRUE(net->router({1, 1}).table().has_forward(buf));
}

TEST_F(DualVcFixture, UniformTrafficOnBothVcsDeliversEverything) {
  // Random BE traffic alternating VCs per packet, network-wide.
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < net->node_count(); ++i) {
    const NodeId src = net->node_at(i);
    for (std::size_t j = 0; j < net->node_count(); ++j) {
      const NodeId dst = net->node_at(j);
      if (src == dst) continue;
      for (int k = 0; k < 3; ++k) {
        net->na(src).send_be_packet(
            make_be_packet(net->be_route(src, dst), {1u, 2u, 3u},
                           static_cast<std::uint32_t>(1000 + sent)),
            static_cast<BeVcIdx>(sent % 2));
        ++sent;
      }
    }
  }
  sim.run();
  std::uint64_t delivered = 0;
  for (const auto& [tag, s] : hub.flows_by_tag()) delivered += s->packets;
  EXPECT_EQ(delivered, sent);
}

TEST(BeVcConfig, SingleVcRejectsVc1Traffic) {
  sim::SimContext ctx;
  MeshConfig mesh;  // default: be_vcs = 1
  Network net(ctx, mesh);
  EXPECT_THROW(net.na({0, 0}).send_be_packet(
                   make_be_packet(net.be_route({0, 0}, {1, 0}), {1u}), 1),
               mango::ModelError);
}

TEST(BeVcConfig, ThreeVcsImpossibleWithOneHeaderBit) {
  sim::SimContext ctx;
  MeshConfig mesh;
  mesh.router.be_vcs = 3;
  EXPECT_THROW(Network(ctx, mesh), mango::ModelError);
}

}  // namespace
}  // namespace mango::noc
