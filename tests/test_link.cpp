// Unit tests for inter-router links: pipelining and the bundled-data vs
// 1-of-4 delay-insensitive signaling disciplines (Section 6).
#include <gtest/gtest.h>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

NetworkConfig mesh_with(LinkSignaling s, sim::Time skew,
                        unsigned stages = 1) {
  NetworkConfig cfg{TopologySpec::mesh(2, 1)};
  cfg.link_signaling = s;
  cfg.link_skew_ps = skew;
  cfg.link_pipeline_stages = stages;
  return cfg;
}

TEST(LinkSignalingTest, BundledDataAcceptsSkewWithinMargin) {
  sim::SimContext ctx;
  const StageDelays d = stage_delays(TimingCorner::kWorstCase);
  EXPECT_NO_THROW(
      Network(ctx, mesh_with(LinkSignaling::kBundledData, d.bundling_margin)));
}

TEST(LinkSignalingTest, BundledDataRejectsExcessSkew) {
  sim::SimContext ctx;
  const StageDelays d = stage_delays(TimingCorner::kWorstCase);
  EXPECT_THROW(
      Network(ctx,
              mesh_with(LinkSignaling::kBundledData, d.bundling_margin + 1)),
      mango::ModelError);
}

TEST(LinkSignalingTest, OneOfFourToleratesArbitrarySkew) {
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  Network net(ctx, mesh_with(LinkSignaling::kOneOfFour, 5000));
  ConnectionManager mgr(net, NodeId{0, 0});
  MeasurementHub hub;
  attach_hub(net, hub);
  const Connection& c = mgr.open_direct({0, 0}, {1, 0});
  for (int i = 0; i < 50; ++i) {
    Flit f;
    f.seq = static_cast<std::uint64_t>(i);
    f.injected_at = sim.now();
    net.na({0, 0}).gs_send(c.src_iface, f);
  }
  sim.run();
  EXPECT_EQ(hub.flow(0).flits, 50u);
  EXPECT_EQ(hub.flow(0).seq_errors, 0u);
}

TEST(LinkSignalingTest, OneOfFourPaysSkewAndCompletionInLatency) {
  const StageDelays d = stage_delays(TimingCorner::kWorstCase);
  sim::SimContext c1, c2;
  Network bundled(c1, mesh_with(LinkSignaling::kBundledData, 0));
  Network di(c2, mesh_with(LinkSignaling::kOneOfFour, 300));
  const Link& lb = *bundled.links().front();
  const Link& ld = *di.links().front();
  EXPECT_EQ(lb.forward_latency(), d.merge_fwd + d.link_fwd);
  EXPECT_EQ(ld.forward_latency(),
            d.merge_fwd + d.link_fwd + 300 + d.di_completion);
}

TEST(LinkSignalingTest, OneOfFourUsesAboutTwiceTheDataWires) {
  EXPECT_EQ(link_forward_wires(LinkSignaling::kBundledData), 40u);  // 39 + req
  EXPECT_EQ(link_forward_wires(LinkSignaling::kOneOfFour), 80u);    // 20 * 4
  sim::SimContext ctx;
  Network net(ctx, mesh_with(LinkSignaling::kOneOfFour, 0));
  // + ack + 8 unlock wires + BE credit.
  EXPECT_EQ(net.links().front()->wires_per_direction(), 80u + 1 + 8 + 1);
}

TEST(LinkSignalingTest, PipelinedStagesMultiplyLatency) {
  sim::SimContext ctx;
  Network net(ctx, mesh_with(LinkSignaling::kBundledData, 0, /*stages=*/3));
  const StageDelays d = stage_delays(TimingCorner::kWorstCase);
  EXPECT_EQ(net.links().front()->forward_latency(),
            d.merge_fwd + 3 * d.link_fwd);
  EXPECT_EQ(net.links().front()->reverse_latency(), 3 * d.unlock_back);
  EXPECT_EQ(net.links().front()->pipeline_stages(), 3u);
}

TEST(LinkSignalingTest, SkewedDiLinksStillMeetGuarantees) {
  // The end-to-end GS machinery is agnostic to the signaling choice.
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();
  NetworkConfig cfg = mesh_with(LinkSignaling::kOneOfFour, 400);
  cfg.topology = TopologySpec::mesh(3, 1);
  Network net(ctx, cfg);
  ConnectionManager mgr(net, NodeId{0, 0});
  MeasurementHub hub;
  attach_hub(net, hub);
  const Connection& c = mgr.open_direct({0, 0}, {2, 0});
  int sent = 0;
  net.na({0, 0}).set_gs_supplier(c.src_iface, [&]() -> std::optional<Flit> {
    if (sent >= 200) return std::nullopt;
    Flit f;
    f.seq = static_cast<std::uint64_t>(sent++);
    f.injected_at = sim.now();
    return f;
  });
  sim.run();
  EXPECT_EQ(hub.flow(0).flits, 200u);
  EXPECT_EQ(hub.flow(0).seq_errors, 0u);
}

}  // namespace
}  // namespace mango::noc
