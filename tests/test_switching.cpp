// Unit + property tests for the non-blocking switching module (Fig 5).
#include <gtest/gtest.h>

#include <optional>

#include "noc/common/config.hpp"
#include "noc/router/switching.hpp"
#include "sim/context.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace mango::noc {
namespace {

struct SwitchingFixture : ::testing::Test {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  RouterConfig cfg;
  StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  SwitchingModule sw{sim, cfg, delays};
  /// Posts test stimuli as kernel events.
  sim::ControlPlane ctrl;
  SwitchingFixture() { ctrl.bind_kernel(sim); }
};

TEST_F(SwitchingFixture, NetworkInputMapUsesAllEightCodes) {
  // From a network input: 3 other ports x 2 halves + local + BE = 8.
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    unsigned gs = 0, be = 0, local = 0;
    for (std::uint8_t c = 0; c < 8; ++c) {
      const auto d = sw.decode(p, c);
      if (d.kind == SwitchingModule::Dest::Kind::kBe) {
        ++be;
      } else if (d.kind == SwitchingModule::Dest::Kind::kGs) {
        ++gs;
        if (d.out == kLocalPort) ++local;
        // No U-turns.
        EXPECT_NE(d.out, p);
      }
    }
    EXPECT_EQ(gs, 7u);
    EXPECT_EQ(local, 1u);
    EXPECT_EQ(be, 1u);
  }
}

TEST_F(SwitchingFixture, LocalInputReachesAllNetworkHalves) {
  unsigned count[kNumDirections] = {};
  for (std::uint8_t c = 0; c < 8; ++c) {
    const auto d = sw.decode(kLocalPort, c);
    ASSERT_EQ(d.kind, SwitchingModule::Dest::Kind::kGs);
    ASSERT_TRUE(is_network_port(d.out));
    ++count[d.out];
  }
  for (unsigned n : count) EXPECT_EQ(n, 2u);  // both halves
}

TEST_F(SwitchingFixture, EncodeDecodeRoundTripsForAllReachableBuffers) {
  for (PortIdx in = 0; in < kNumPorts; ++in) {
    for (PortIdx out = 0; out < kNumDirections; ++out) {
      if (out == in) continue;  // unreachable (U-turn)
      for (VcIdx vc = 0; vc < cfg.vcs_per_port; ++vc) {
        const VcBufferId dest{out, vc};
        const SteerBits steer = sw.encode_gs(in, dest);
        const auto d = sw.decode(in, steer.split);
        ASSERT_EQ(d.kind, SwitchingModule::Dest::Kind::kGs);
        ASSERT_EQ(d.out, out);
        ASSERT_EQ(d.half * 4 + steer.vc, vc);
      }
    }
    if (in != kLocalPort) {
      // Local output interfaces reachable from network inputs.
      for (VcIdx i = 0; i < cfg.local_gs_ifaces; ++i) {
        const SteerBits steer = sw.encode_gs(in, {kLocalPort, i});
        const auto d = sw.decode(in, steer.split);
        ASSERT_EQ(d.out, kLocalPort);
        ASSERT_EQ(steer.vc, i % 4);
      }
    }
  }
}

TEST_F(SwitchingFixture, UTurnIsUnreachable) {
  EXPECT_THROW(sw.encode_gs(port_of(Direction::kNorth),
                            VcBufferId{port_of(Direction::kNorth), 0}),
               mango::ModelError);
}

TEST_F(SwitchingFixture, LocalToLocalIsUnreachable) {
  EXPECT_THROW(sw.encode_gs(kLocalPort, VcBufferId{kLocalPort, 0}),
               mango::ModelError);
}

TEST_F(SwitchingFixture, BeCodesExistOnNetworkInputsOnly) {
  for (PortIdx p = 0; p < kNumDirections; ++p) {
    const std::uint8_t code = sw.be_code(p);
    EXPECT_EQ(sw.decode(p, code).kind, SwitchingModule::Dest::Kind::kBe);
  }
  EXPECT_THROW(sw.be_code(kLocalPort), mango::ModelError);
}

TEST_F(SwitchingFixture, GsDeliveryIsConstantLatency) {
  std::optional<VcBufferId> delivered_to;
  sim::Time delivered_at = 0;
  sw.set_gs_sink([&](VcBufferId id, Flit&&) {
    delivered_to = id;
    delivered_at = sim.now();
  });
  const VcBufferId dest{port_of(Direction::kEast), 5};
  const SteerBits steer = sw.encode_gs(port_of(Direction::kWest), dest);
  Flit f;
  f.data = 99;
  ctrl.post_at(sim, 1000, [&] {
    sw.route(port_of(Direction::kWest), LinkFlit{steer, f});
  });
  sim.run();
  ASSERT_TRUE(delivered_to.has_value());
  EXPECT_EQ(*delivered_to, dest);
  // Non-blocking: split + switch + unsharebox latch, always.
  EXPECT_EQ(delivered_at,
            1000 + delays.split_fwd + delays.switch_fwd + delays.unshare_fwd);
}

TEST_F(SwitchingFixture, BeDeliveryAfterSplitOnly) {
  std::optional<PortIdx> from;
  sim::Time at = 0;
  sw.set_be_sink([&](PortIdx in, Flit&&) {
    from = in;
    at = sim.now();
  });
  const PortIdx in = port_of(Direction::kSouth);
  Flit f;
  ctrl.post_at(sim, 500, [&] {
    sw.route(in, LinkFlit{SteerBits{sw.be_code(in), 0}, f});
  });
  sim.run();
  ASSERT_TRUE(from.has_value());
  EXPECT_EQ(*from, in);
  EXPECT_EQ(at, 500 + delays.split_fwd);
}

TEST_F(SwitchingFixture, CountsRoutedFlits) {
  sw.set_gs_sink([](VcBufferId, Flit&&) {});
  const SteerBits steer =
      sw.encode_gs(kLocalPort, {port_of(Direction::kNorth), 0});
  for (int i = 0; i < 5; ++i) {
    sw.route(kLocalPort, LinkFlit{steer, Flit{}});
  }
  sim.run();
  EXPECT_EQ(sw.flits_routed(), 5u);
}

TEST(SwitchingConfig, RejectsOversizedVcCounts) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  RouterConfig cfg;
  cfg.vcs_per_port = 9;  // 5 steering bits cap at 8
  const StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  EXPECT_THROW(SwitchingModule(sim, cfg, delays), mango::ModelError);
}

TEST(SwitchingConfig, SmallerVcCountsWork) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  RouterConfig cfg;
  cfg.vcs_per_port = 4;  // one half-switch per output
  const StageDelays delays = stage_delays(TimingCorner::kWorstCase);
  SwitchingModule sw(sim, cfg, delays);
  const SteerBits s = sw.encode_gs(kLocalPort, {port_of(Direction::kWest), 3});
  const auto d = sw.decode(kLocalPort, s.split);
  EXPECT_EQ(d.out, port_of(Direction::kWest));
  EXPECT_EQ(d.half * 4 + s.vc, 3u);
}

}  // namespace
}  // namespace mango::noc
