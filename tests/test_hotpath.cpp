// Hot-path flattening contracts (see DESIGN.md "hot-path budget"):
//
//  * Coalesced handshakes are an *encoding* of the same machine:
//    randomized BE+GS traffic on every topology family must produce
//    bit-identical scenario statistics — delivery counts, latency
//    quantiles down to the max, event totals (folded hops included) —
//    with RouterConfig::coalesce_handshakes on and off, and the per-flit
//    arrival sequences at every destination must match exactly.
//  * The pooled packet path performs no heap allocation at steady state:
//    after warm-up, assembling, injecting, delivering and recycling BE
//    packets touches only pooled/slab storage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "exp/scenario.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;

// --- global allocation counter (for the zero-allocation assertion) ---------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

// --- 1. whole-scenario differential across all four fabrics ----------------

exp::ScenarioSpec differential_spec(TopologyKind kind, std::uint64_t seed) {
  exp::ScenarioSpec spec;
  spec.topology = kind;
  spec.width = 3;
  spec.height = 3;  // ring/graph use width*height = 9 nodes
  spec.router.be_vcs = 2;  // wrap fabrics need the dateline classes
  spec.pattern = BePattern::kUniform;
  spec.be_interarrival_ps = 6000;
  spec.gs_set = GsSetKind::kRing;
  spec.gs_period_ps = 6000;
  spec.duration_ps = 400000;  // 0.4 us keeps the 24-run matrix fast
  spec.seed = seed;
  return spec;
}

TEST(HotpathDifferential, CoalescedScenarioStatsAreBitIdenticalToLegacy) {
  for (const TopologyKind kind :
       {TopologyKind::kMesh, TopologyKind::kTorus, TopologyKind::kRing,
        TopologyKind::kGraph}) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      exp::ScenarioSpec coalesced = differential_spec(kind, seed);
      coalesced.router.coalesce_handshakes = true;
      exp::ScenarioSpec legacy = differential_spec(kind, seed);
      legacy.router.coalesce_handshakes = false;

      const exp::ScenarioResult a = exp::run_scenario(coalesced);
      const exp::ScenarioResult b = exp::run_scenario(legacy);
      ASSERT_TRUE(a.ok()) << a.error;
      ASSERT_TRUE(b.ok()) << b.error;
      // Every field, including the exact latency quantiles and the
      // event total (coalesced folds count hop-for-hop).
      EXPECT_TRUE(a.stats == b.stats)
          << "stats diverged on " << coalesced.topology_spec().label()
          << " seed " << seed << ": events " << a.stats.events << " vs "
          << b.stats.events << ", BE delivered "
          << a.stats.be_packets_delivered << " vs "
          << b.stats.be_packets_delivered << ", GS p99 "
          << a.stats.gs_latency_p99_ns << " vs " << b.stats.gs_latency_p99_ns;
    }
  }
}

// --- 2. per-flit arrival sequences on randomized traffic --------------------

struct Arrival {
  std::uint32_t tag;
  std::uint64_t seq;
  sim::Time at;
  bool operator==(const Arrival& o) const {
    return tag == o.tag && seq == o.seq && at == o.at;
  }
};

/// Runs randomized BE + saturating GS traffic on a 3x3 mesh and records
/// the per-destination delivery sequences (GS flits and BE packet
/// headers, with their delivery instants).
std::vector<std::vector<Arrival>> run_and_record(bool coalesce,
                                                 std::uint64_t seed) {
  sim::SimContext ctx(seed);
  RouterConfig rc;
  rc.coalesce_handshakes = coalesce;
  NetworkConfig cfg;
  cfg.topology = TopologySpec::mesh(3, 3);
  cfg.router = rc;
  Network net(ctx, cfg);
  ConnectionManager mgr(net, {0, 0});

  std::vector<std::vector<Arrival>> arrivals(net.node_count());
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    NetworkAdapter& na = net.na(net.node_at(i));
    na.set_gs_handler_timed(
        [&arrivals, i](LocalIfaceIdx, Flit&& f, sim::Time at) {
          arrivals[i].push_back(Arrival{f.tag, f.seq, at});
        });
    na.set_be_handler_timed([&arrivals, i](BePacket&& pkt, sim::Time at) {
      arrivals[i].push_back(
          Arrival{pkt.flits.front().tag, pkt.flits.front().seq, at});
    });
  }

  // Saturating GS stream across the diagonal plus randomized BE traffic
  // from every node (exponential interarrivals, uniform destinations).
  const Connection& conn = mgr.open_direct({0, 0}, {2, 2});
  GsStreamSource gs(net.na({0, 0}), conn.src_iface, /*tag=*/9,
                    GsStreamSource::Options{});
  gs.start();
  std::vector<std::unique_ptr<BeTrafficSource>> be;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    BeTrafficSource::Options opt;
    opt.mean_interarrival_ps = 5000;
    opt.payload_words = 3;
    opt.seed = seed * 1000 + i;
    be.push_back(std::make_unique<BeTrafficSource>(
        net, net.node_at(i), static_cast<std::uint32_t>(100 + i), opt));
    be.back()->start();
  }
  ctx.run_until(300000);
  return arrivals;
}

TEST(HotpathDifferential, PerFlitArrivalSequencesMatchLegacy) {
  for (const std::uint64_t seed : {3ull, 11ull}) {
    const auto coalesced = run_and_record(/*coalesce=*/true, seed);
    const auto legacy = run_and_record(/*coalesce=*/false, seed);
    ASSERT_EQ(coalesced.size(), legacy.size());
    std::size_t total = 0;
    for (std::size_t n = 0; n < coalesced.size(); ++n) {
      ASSERT_EQ(coalesced[n].size(), legacy[n].size()) << "node " << n;
      for (std::size_t k = 0; k < coalesced[n].size(); ++k) {
        ASSERT_TRUE(coalesced[n][k] == legacy[n][k])
            << "node " << n << " delivery " << k << ": tag "
            << coalesced[n][k].tag << "/" << legacy[n][k].tag << " seq "
            << coalesced[n][k].seq << "/" << legacy[n][k].seq << " at "
            << coalesced[n][k].at << "/" << legacy[n][k].at;
      }
      total += coalesced[n].size();
    }
    EXPECT_GT(total, 200u) << "differential traffic too thin to be meaningful";
  }
}

// --- 3. steady-state zero-allocation on the pooled packet path --------------

TEST(HotpathAllocation, PooledBePathIsAllocationFreeAtSteadyState) {
  sim::SimContext ctx;
  MeshConfig mesh{2, 2, RouterConfig{}, 1};
  Network net(ctx, mesh);
  sim::VectorPool<Flit>& pool = ctx.pools().vectors<Flit>();
  std::uint64_t delivered = 0;
  net.na({1, 1}).set_be_handler_timed([&](BePacket&& pkt, sim::Time) {
    ++delivered;
    pool.release(std::move(pkt.flits));
  });
  const BeHeader header = net.be_header({0, 0}, {1, 1});
  const std::uint32_t payload[4] = {1, 2, 3, 4};

  const auto inject_and_run = [&](std::uint64_t packets) {
    std::uint64_t sent = 0;
    const std::uint64_t target = delivered + packets;
    while (delivered < target) {
      while (sent < packets && net.na({0, 0}).be_queue_flits() < 32) {
        net.na({0, 0}).send_be_packet(
            make_be_packet(pool.acquire(), header, payload, 4, 7));
        ++sent;
      }
      if (!ctx.sim().step()) break;
    }
  };

  // Warm-up: grow the pool, the NA/BE rings, the event slabs and the
  // fold ledger to their steady-state capacities.
  inject_and_run(600);
  ASSERT_EQ(delivered, 600u);

  const std::uint64_t before = g_allocs.load();
  inject_and_run(400);
  const std::uint64_t after = g_allocs.load();
  ASSERT_EQ(delivered, 1000u);
  EXPECT_EQ(after - before, 0u)
      << "steady-state BE injection allocated " << (after - before)
      << " times over 400 packets";

  // The pure assemble/recycle cycle is allocation-free on its own too.
  const std::uint64_t before2 = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    BePacket pkt = make_be_packet(pool.acquire(), header, payload, 4, 7);
    pool.release(std::move(pkt.flits));
  }
  EXPECT_EQ(g_allocs.load() - before2, 0u);
}

}  // namespace
