// ConnectionBroker: admission accounting, queue/reject policy, the
// packet-mode lifecycle it drives, and the statistics it records.
#include <gtest/gtest.h>

#include "noc/network/connection_broker.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

// 2x1 mesh: every (0,0)->(1,0) connection needs one of four GS source
// interfaces at (0,0), one of eight East VCs, and one of four local
// output interfaces at (1,0) — capacity is exactly four connections.
struct BrokerFixture : ::testing::Test {
  sim::SimContext ctx;
  MeshConfig mesh{2, 1, RouterConfig{}, 1};
  Network net{ctx, mesh};
  ConnectionManager mgr{net, NodeId{0, 0}};

  BrokerConfig direct_cfg() {
    BrokerConfig cfg;
    cfg.packet_mode = false;
    return cfg;
  }
};

TEST_F(BrokerFixture, DirectModeAdmitsAndReleases) {
  ConnectionBroker broker(net, mgr, direct_cfg());
  EXPECT_TRUE(broker.admissible({0, 0}, {1, 0}));
  bool ready = false;
  const RequestId id = broker.request_open(
      {0, 0}, {1, 0},
      [&](RequestId, const Connection& c) {
        ready = true;
        EXPECT_TRUE(c.ready());
      });
  EXPECT_TRUE(ready);  // direct mode: zero-time setup
  EXPECT_EQ(broker.state(id), RequestState::kReady);
  EXPECT_EQ(broker.live_connections(), 1u);
  // One of eight East VCs and one of four local sinks are now promised.
  EXPECT_DOUBLE_EQ(broker.reserved_share({0, 0}, port_of(Direction::kEast)),
                   1.0 / 8.0);
  EXPECT_DOUBLE_EQ(broker.reserved_share({1, 0}, kLocalPort), 1.0 / 4.0);

  bool closed = false;
  broker.request_close(id, [&](RequestId) { closed = true; });
  EXPECT_EQ(broker.state(id), RequestState::kDraining);
  ctx.run();  // drain dwell elapses, clear applies
  EXPECT_TRUE(closed);
  EXPECT_EQ(broker.state(id), RequestState::kClosed);
  EXPECT_EQ(broker.live_connections(), 0u);
  EXPECT_DOUBLE_EQ(broker.reserved_share({0, 0}, port_of(Direction::kEast)),
                   0.0);
  EXPECT_EQ(broker.stats().closed, 1u);
  EXPECT_EQ(broker.stats().teardown_latency_ns.count(), 1u);
}

TEST_F(BrokerFixture, QueuesWhenExhaustedAndRetriesAfterClose) {
  ConnectionBroker broker(net, mgr, direct_cfg());
  std::vector<RequestId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(broker.request_open({0, 0}, {1, 0}));
    EXPECT_EQ(broker.state(ids.back()), RequestState::kReady);
  }
  EXPECT_FALSE(broker.admissible({0, 0}, {1, 0}));
  bool fifth_ready = false;
  const RequestId fifth = broker.request_open(
      {0, 0}, {1, 0},
      [&](RequestId, const Connection&) { fifth_ready = true; });
  EXPECT_EQ(broker.state(fifth), RequestState::kQueued);
  EXPECT_EQ(broker.queue_depth(), 1u);
  EXPECT_EQ(broker.stats().queued, 1u);
  EXPECT_FALSE(fifth_ready);

  broker.request_close(ids[0]);
  ctx.run();
  // The close freed the path; the parked request was re-admitted.
  EXPECT_TRUE(fifth_ready);
  EXPECT_EQ(broker.state(fifth), RequestState::kReady);
  EXPECT_EQ(broker.queue_depth(), 0u);
  EXPECT_EQ(broker.stats().retries, 1u);
  EXPECT_EQ(broker.stats().admitted, 5u);
  // Setup latency of the queued request includes its queueing delay.
  EXPECT_EQ(broker.stats().setup_latency_ns.count(), 5u);
}

TEST_F(BrokerFixture, RejectsWhenQueueFullAndAccountingIsUntouched) {
  BrokerConfig cfg = direct_cfg();
  cfg.max_queue = 0;  // no parking: reject immediately when busy
  ConnectionBroker broker(net, mgr, cfg);
  std::vector<RequestId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(broker.request_open({0, 0}, {1, 0}));

  const double share_before =
      broker.reserved_share({0, 0}, port_of(Direction::kEast));
  bool rejected = false;
  const RequestId r =
      broker.request_open({0, 0}, {1, 0}, {}, [&](RequestId) { rejected = true; });
  EXPECT_TRUE(rejected);
  EXPECT_EQ(broker.state(r), RequestState::kRejected);
  EXPECT_EQ(broker.stats().rejected, 1u);
  EXPECT_DOUBLE_EQ(broker.stats().blocking_probability(), 1.0 / 5.0);
  // Regression: the rejection touched no accounting.
  EXPECT_DOUBLE_EQ(broker.reserved_share({0, 0}, port_of(Direction::kEast)),
                   share_before);
  EXPECT_EQ(broker.live_connections(), 4u);

  // Open-after-reject succeeds once a close frees the path — a reject
  // must never leak a reservation that would block it.
  for (const RequestId id : ids) broker.request_close(id);
  ctx.run();
  EXPECT_EQ(broker.live_connections(), 0u);
  EXPECT_TRUE(broker.admissible({0, 0}, {1, 0}));
  const RequestId again = broker.request_open({0, 0}, {1, 0});
  EXPECT_EQ(broker.state(again), RequestState::kReady);
}

TEST_F(BrokerFixture, UnroutablePairsAreRejectedNotQueued) {
  ConnectionBroker broker(net, mgr, direct_cfg());
  const RequestId self = broker.request_open({0, 0}, {0, 0});
  EXPECT_EQ(broker.state(self), RequestState::kRejected);
  EXPECT_EQ(broker.queue_depth(), 0u);
}

TEST(BrokerPacketMode, CloseBeforeReadyAndDoubleCloseAreChecked) {
  // A 3x3 mesh gives the programming packets a multi-hop path, so the
  // Programming state is observably in flight when we try to close.
  sim::SimContext ctx;
  MeshConfig mesh{3, 3, RouterConfig{}, 1};
  Network net(ctx, mesh);
  ConnectionManager mgr(net, NodeId{0, 0});
  ConnectionBroker broker(net, mgr, BrokerConfig{});
  const RequestId id = broker.request_open({1, 0}, {2, 2});
  EXPECT_EQ(broker.state(id), RequestState::kProgramming);
  EXPECT_THROW(broker.request_close(id), mango::ModelError);
  ctx.run();
  EXPECT_EQ(broker.state(id), RequestState::kReady);
  broker.request_close(id);
  EXPECT_THROW(broker.request_close(id), mango::ModelError);  // draining
  ctx.run();
  EXPECT_EQ(broker.state(id), RequestState::kClosed);
  EXPECT_THROW(broker.request_close(id), mango::ModelError);  // closed
}

TEST_F(BrokerFixture, SeedsLedgerFromPreexistingConnections) {
  // Connections opened before the broker exists (static GS sets) must
  // count against admission.
  for (int i = 0; i < 4; ++i) mgr.open_direct({0, 0}, {1, 0});
  ConnectionBroker broker(net, mgr, direct_cfg());
  EXPECT_EQ(broker.live_connections(), 4u);
  EXPECT_FALSE(broker.admissible({0, 0}, {1, 0}));
  EXPECT_DOUBLE_EQ(broker.reserved_share({1, 0}, kLocalPort), 1.0);
}

TEST_F(BrokerFixture, SeesConnectionsOpenedOnTheManager) {
  // Connections opened on the manager after the broker exists count
  // against admission too: the broker reads the manager's reservations
  // rather than keeping its own copy.
  ConnectionBroker broker(net, mgr, direct_cfg());
  for (int i = 0; i < 4; ++i) mgr.open_direct({0, 0}, {1, 0});
  EXPECT_FALSE(broker.admissible({0, 0}, {1, 0}));
  EXPECT_DOUBLE_EQ(broker.reserved_share({1, 0}, kLocalPort), 1.0);
  RequestId id = 0;
  EXPECT_NO_THROW(id = broker.request_open({0, 0}, {1, 0}));
  EXPECT_EQ(broker.state(id), RequestState::kQueued);
}

TEST(BrokerPacketMode, SetupAndTeardownLatenciesAreMeasured) {
  sim::SimContext ctx;
  MeshConfig mesh{3, 3, RouterConfig{}, 1};
  Network net(ctx, mesh);
  ConnectionManager mgr(net, NodeId{0, 0});
  ConnectionBroker broker(net, mgr, BrokerConfig{});

  const RequestId id = broker.request_open({2, 0}, {0, 2});
  EXPECT_EQ(broker.state(id), RequestState::kProgramming);
  ctx.run();
  ASSERT_EQ(broker.state(id), RequestState::kReady);
  ASSERT_NE(broker.connection(id), nullptr);
  EXPECT_TRUE(broker.connection(id)->ready());

  broker.request_close(id);
  ctx.run();
  EXPECT_EQ(broker.state(id), RequestState::kClosed);
  EXPECT_EQ(broker.connection(id), nullptr);

  const ConnectionBroker::Stats& st = broker.stats();
  ASSERT_EQ(st.setup_latency_ns.count(), 1u);
  ASSERT_EQ(st.teardown_latency_ns.count(), 1u);
  // BE programming packets take real simulated time end to end; the
  // teardown includes the drain dwell.
  EXPECT_GT(st.setup_latency_ns.max(), 0.0);
  EXPECT_GE(st.teardown_latency_ns.max(),
            sim::to_ns(kBrokerDrainPs));
}

}  // namespace
}  // namespace mango::noc
