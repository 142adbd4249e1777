// Router-assembly unit tests: wiring rules, accessors, activity
// counters and misuse detection at the Router level.
#include <gtest/gtest.h>

#include "noc/link/link.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

TEST(RouterUnit, ComponentAccessorsWork) {
  sim::SimContext ctx;
  RouterConfig cfg;
  sim::Arena arena;  // owns the router's components
  Router r(ctx, cfg, NodeId{1, 2}, "R-test", arena);
  EXPECT_EQ(r.node(), (NodeId{1, 2}));
  EXPECT_EQ(r.name(), "R-test");
  EXPECT_EQ(r.config().vcs_per_port, 8u);
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    EXPECT_EQ(r.arbiter(p).total_grants(), 0u);
    EXPECT_EQ(r.link(p), nullptr);  // unattached until a Link claims it
  }
  EXPECT_EQ(r.be_router().be_vcs(), 1u);
}

TEST(RouterUnit, DoubleLinkAttachRejected) {
  sim::SimContext ctx;
  RouterConfig cfg;
  sim::Arena arena;
  Router a(ctx, cfg, NodeId{0, 0}, "Ra", arena);
  Router b(ctx, cfg, NodeId{1, 0}, "Rb", arena);
  Router c(ctx, cfg, NodeId{2, 0}, "Rc", arena);
  Link ab(Link::Endpoint{&a, port_of(Direction::kEast)},
          Link::Endpoint{&b, port_of(Direction::kWest)});
  // Port East of `a` is taken; a second link on it must be rejected.
  EXPECT_THROW(Link(Link::Endpoint{&a, port_of(Direction::kEast)},
                    Link::Endpoint{&c, port_of(Direction::kWest)}),
               mango::ModelError);
}

TEST(RouterUnit, SelfLinkRejected) {
  sim::SimContext ctx;
  RouterConfig cfg;
  sim::Arena arena;
  Router a(ctx, cfg, NodeId{0, 0}, "Ra", arena);
  EXPECT_THROW(Link(Link::Endpoint{&a, port_of(Direction::kEast)},
                    Link::Endpoint{&a, port_of(Direction::kWest)}),
               mango::ModelError);
}

TEST(RouterUnit, FlowControlAccessorBounds) {
  sim::SimContext ctx;
  RouterConfig cfg;
  sim::Arena arena;
  Router r(ctx, cfg, NodeId{0, 0}, "R", arena);
  EXPECT_TRUE(r.flow_control(0, 0).can_admit());
  EXPECT_THROW(r.flow_control(kLocalPort, 0), mango::ModelError);
  EXPECT_THROW(r.flow_control(0, 8), mango::ModelError);
}

TEST(RouterUnit, ActivityCountersTrackTraffic) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  MeshConfig mesh{2, 1, RouterConfig{}, 1};
  Network net(ctx, mesh);
  ConnectionManager mgr(net, NodeId{0, 0});
  const Connection& c = mgr.open_direct({0, 0}, {1, 0});
  net.na({1, 0}).set_gs_handler([](LocalIfaceIdx, Flit&&, sim::Time) {});
  const RouterActivity before = net.router({0, 0}).activity();
  EXPECT_EQ(before.switch_flits, 0u);
  for (int i = 0; i < 10; ++i) net.na({0, 0}).gs_send(c.src_iface, Flit{});
  sim.run();
  const RouterActivity a0 = net.router({0, 0}).activity();
  const RouterActivity a1 = net.router({1, 0}).activity();
  EXPECT_EQ(a0.switch_flits, 10u);       // local inject through the switch
  EXPECT_EQ(a0.arb_grants, 10u);         // each flit won the link once
  EXPECT_EQ(a0.link_flits_sent, 10u);
  EXPECT_EQ(a1.switch_flits, 10u);       // received through the switch
  EXPECT_EQ(a1.arb_grants, 0u);          // delivery needs no arbitration
  // Both routers toggled reverse signals (R0 to the NA, R1 to R0).
  EXPECT_EQ(a0.vc_control_signals, 10u);
  EXPECT_EQ(a1.vc_control_signals, 10u);
}

// The power model's link term covers every flit a router puts on a
// link, BE as well as GS.
TEST(RouterUnit, BeFlitsCountInLinkActivity) {
  sim::SimContext ctx;
  MeshConfig mesh{2, 1, RouterConfig{}, 1};
  Network net(ctx, mesh);
  net.na({1, 0}).set_be_handler([](BePacket&&, sim::Time) {});
  BePacket pkt = make_be_packet(net.be_route({0, 0}, {1, 0}), {1u, 2u, 3u});
  ASSERT_EQ(pkt.size(), 4u);
  net.na({0, 0}).send_be_packet(std::move(pkt), 0);
  ctx.run();
  const RouterActivity a0 = net.router({0, 0}).activity();
  EXPECT_EQ(a0.arb_grants, 4u);
  EXPECT_EQ(a0.link_flits_sent, 4u);
  EXPECT_EQ(net.router({1, 0}).activity().link_flits_sent, 0u);
}

TEST(RouterUnit, LocalGsInjectValidatesInterface) {
  sim::SimContext ctx;
  RouterConfig cfg;
  sim::Arena arena;
  Router r(ctx, cfg, NodeId{0, 0}, "R", arena);
  EXPECT_THROW(r.inject_local_gs(4, LinkFlit{}), mango::ModelError);
}

TEST(RouterUnit, UnattachedPortGrantIsDetected) {
  // A flit steered towards a mesh-edge port with no link must raise.
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  RouterConfig cfg;
  sim::Arena arena;
  Router r(ctx, cfg, NodeId{0, 0}, "R", arena);
  const PortIdx west = port_of(Direction::kWest);  // edge, no link
  const VcBufferId buf{west, 0};
  // The buffer's reverse signal needs an attached NA (a missing one is
  // a ModelError of its own), so attach one with source 0 bound: the
  // error must then be the grant onto the unattached port.
  NetworkAdapter na(r, "NA");
  na.configure_gs_source(0, r.switching().encode_gs(kLocalPort, buf));
  r.table().set_forward(buf, SteerBits{0, 0});
  r.table().set_reverse(buf, ReverseEntry{kLocalPort, 0});
  // Drop a flit straight into the buffer and let it request the link.
  r.vc_buffer(buf).accept_unshare(Flit{});
  try {
    sim.run();
    FAIL() << "the grant onto an unattached port went unnoticed";
  } catch (const mango::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("unattached port " + port_name(west)),
              std::string::npos)
        << e.what();
  }
}

TEST(RouterUnit, SecondNetworkAdapterOnOneRouterIsAModelError) {
  // The local port has one partner. A second NA must not take over the
  // first one's reverse signals, deliveries and BE credits.
  sim::SimContext ctx;
  MeshConfig mesh{2, 1, RouterConfig{}, 1};
  Network net(ctx, mesh);
  EXPECT_THROW(NetworkAdapter(net.router({1, 0}), "NA-extra"),
               mango::ModelError);
  // The network's own NA still receives what the local port delivers.
  std::size_t received = 0;
  net.na({1, 0}).set_be_handler([&](BePacket&&, sim::Time) { ++received; });
  net.na({0, 0}).send_be_packet(
      make_be_packet(net.be_route({0, 0}, {1, 0}), {1u, 2u}), 0);
  ctx.run();
  EXPECT_EQ(received, 1u);
}

}  // namespace
}  // namespace mango::noc
