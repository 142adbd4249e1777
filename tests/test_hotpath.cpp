// Hot-path flattening contracts (see DESIGN.md "hot-path budget"):
//
//  * Coalesced handshakes are an *encoding* of the same machine:
//    randomized BE+GS traffic on every topology family must produce
//    bit-identical scenario statistics — delivery counts, latency
//    quantiles down to the max, event totals (folded hops included) —
//    with RouterConfig::coalesce_handshakes on and off, the per-flit
//    arrival sequences at every destination must match exactly, and so
//    must every OCP transaction's issue and completion instants.
//  * The pooled packet path performs no heap allocation at steady state:
//    after warm-up, assembling, injecting, delivering and recycling BE
//    packets touches only pooled/slab storage, and rebinding a GS
//    source reuses its flow box in place.
//  * The shard engine's windows allocate nothing at steady state:
//    boundary records travel through outboxes that keep their capacity,
//    and each shard orders its inbound records in place.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "noc/na/ocp.hpp"
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
  // Every arbiter kind: the unregulated baseline runs credit-based flow
  // boxes (no re-arm to fold, and an NA pop that stays an event).
  for (const ArbiterKind arbiter :
       {ArbiterKind::kFairShare, ArbiterKind::kStaticPriority,
        ArbiterKind::kUnregulated}) {
    for (const TopologyKind kind :
         {TopologyKind::kMesh, TopologyKind::kTorus, TopologyKind::kRing,
          TopologyKind::kGraph}) {
      for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
        exp::ScenarioSpec coalesced = differential_spec(kind, seed);
        coalesced.router.arbiter = arbiter;
        coalesced.router.coalesce_handshakes = true;
        exp::ScenarioSpec legacy = coalesced;
        legacy.router.coalesce_handshakes = false;

        const exp::ScenarioResult a = exp::run_scenario(coalesced);
        const exp::ScenarioResult b = exp::run_scenario(legacy);
        ASSERT_TRUE(a.ok()) << a.error;
        ASSERT_TRUE(b.ok()) << b.error;
        // Every field, including the exact latency quantiles and the
        // event total (coalesced folds count hop-for-hop).
        EXPECT_TRUE(a.stats == b.stats)
            << "stats diverged on " << coalesced.topology_spec().label()
            << " arbiter " << static_cast<int>(arbiter) << " seed " << seed
            << ": events " << a.stats.events << " vs " << b.stats.events
            << ", BE delivered " << a.stats.be_packets_delivered << " vs "
            << b.stats.be_packets_delivered << ", GS p99 "
            << a.stats.gs_latency_p99_ns << " vs "
            << b.stats.gs_latency_p99_ns;
      }
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
    na.set_gs_handler(
        [&arrivals, i](LocalIfaceIdx, Flit&& f, sim::Time at) {
          arrivals[i].push_back(Arrival{f.tag, f.seq, at});
        });
    na.set_be_handler([&arrivals, i](BePacket&& pkt, sim::Time at) {
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

// --- 3. OCP transaction timing across the GALS boundary ---------------------

struct Transaction {
  sim::Time issued_at;
  sim::Time completed_at;
  std::uint32_t data;
  bool ok;
  bool operator==(const Transaction& o) const {
    return issued_at == o.issued_at && completed_at == o.completed_at &&
           data == o.data && ok == o.ok;
  }
};

constexpr unsigned kOcpPerMaster = 60;  ///< transactions per master

/// Four clocked OCP masters on the corners of a 3x3 mesh each run a
/// chain of writes and reads against two clocked slaves, issuing the
/// next transaction from the previous one's completion. Returns every
/// master's responses in completion order. The five clocks are
/// unrelated to each other and to the network's stage delays, so
/// requests and responses land at every phase of the receiving clock,
/// some within one NA-local wire hop after an edge: there a hand-over
/// synchronized from the moment it runs instead of from the delivery
/// instant would reach the core a cycle early.
std::vector<std::vector<Transaction>> run_ocp(bool coalesce) {
  sim::SimContext ctx;
  RouterConfig rc;
  rc.coalesce_handshakes = coalesce;
  NetworkConfig cfg;
  cfg.topology = TopologySpec::mesh(3, 3);
  cfg.router = rc;
  Network net(ctx, cfg);

  constexpr std::uint32_t kWords = 64;
  const NodeId slave_nodes[2] = {{1, 1}, {2, 1}};
  OcpSlave slave0(net.na(slave_nodes[0]), ClockDomain{1538, 77}, "mem0",
                  kWords);
  OcpSlave slave1(net.na(slave_nodes[1]), ClockDomain{1261, 400}, "mem1",
                  kWords);
  const NodeId master_nodes[4] = {{0, 0}, {2, 0}, {0, 2}, {2, 2}};
  const ClockDomain master_clocks[4] = {
      {1000, 0}, {1117, 31}, {1403, 250}, {1999, 999}};
  std::vector<std::unique_ptr<OcpMaster>> masters;
  for (unsigned m = 0; m < 4; ++m) {
    masters.push_back(std::make_unique<OcpMaster>(
        net.na(master_nodes[m]), master_clocks[m], "cpu" + std::to_string(m)));
  }

  std::vector<std::vector<Transaction>> log(4);
  std::function<void(unsigned, unsigned)> issue = [&](unsigned m,
                                                      unsigned k) {
    const NodeId slave = slave_nodes[(m + k) % 2];
    const OcpCmd cmd = k % 3 == 2 ? OcpCmd::kRead : OcpCmd::kWrite;
    const OcpRequest req{cmd, (m * 8 + k) % kWords, m * 1000 + k};
    masters[m]->issue(req, net.be_route(master_nodes[m], slave),
                      net.be_route(slave, master_nodes[m]),
                      [&, m, k](const OcpResponse& r) {
                        log[m].push_back(Transaction{
                            r.issued_at, r.completed_at, r.data, r.ok});
                        if (k + 1 < kOcpPerMaster) issue(m, k + 1);
                      });
  };
  for (unsigned m = 0; m < 4; ++m) issue(m, 0);
  ctx.run();
  return log;
}

TEST(HotpathDifferential, OcpTransactionTimesMatchLegacy) {
  const auto coalesced = run_ocp(/*coalesce=*/true);
  const auto legacy = run_ocp(/*coalesce=*/false);
  ASSERT_EQ(coalesced.size(), legacy.size());
  for (std::size_t m = 0; m < coalesced.size(); ++m) {
    ASSERT_EQ(coalesced[m].size(), kOcpPerMaster) << "master " << m;
    ASSERT_EQ(legacy[m].size(), kOcpPerMaster) << "master " << m;
    for (std::size_t k = 0; k < coalesced[m].size(); ++k) {
      const Transaction& a = coalesced[m][k];
      const Transaction& b = legacy[m][k];
      ASSERT_TRUE(a == b) << "master " << m << " transaction " << k
                          << ": issued " << a.issued_at << "/" << b.issued_at
                          << " completed " << a.completed_at << "/"
                          << b.completed_at << " data " << a.data << "/"
                          << b.data;
      EXPECT_TRUE(a.ok);
    }
  }
}

// --- 4. steady-state zero-allocation on the pooled packet path --------------

TEST(HotpathAllocation, PooledBePathIsAllocationFreeAtSteadyState) {
  sim::SimContext ctx;
  MeshConfig mesh{2, 2, RouterConfig{}, 1};
  Network net(ctx, mesh);
  sim::VectorPool<Flit>& pool = ctx.pools().vectors<Flit>();
  std::uint64_t delivered = 0;
  net.na({1, 1}).set_be_handler([&](BePacket&& pkt, sim::Time) {
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

// --- 5. GS source binds keep their flow box in place ------------------------

TEST(HotpathAllocation, GsSourceRebindIsAllocationFree) {
  sim::SimContext ctx;
  MeshConfig mesh{2, 2, RouterConfig{}, 1};
  Network net(ctx, mesh);
  Router& r = net.router({0, 0});
  NetworkAdapter& na = net.na({0, 0});
  const SteerBits first_hop = r.switching().encode_gs(
      kLocalPort, VcBufferId{port_of(Direction::kEast), 0});
  // Warm-up: one bind and release.
  na.configure_gs_source(0, first_hop);
  na.release_gs_source(0);

  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 100; ++i) {
    na.configure_gs_source(0, first_hop);
    na.release_gs_source(0);
  }
  const std::uint64_t allocs = g_allocs.load() - before;
  EXPECT_EQ(allocs, 0u) << "100 GS source binds allocated " << allocs
                        << " times";
}

// --- 6. sharded windows hand records over without allocating ---------------

TEST(HotpathAllocation, ShardedWindowsAreAllocationFreeAtSteadyState) {
  sim::SimContext ctx;
  NetworkConfig cfg = MeshConfig{4, 4, RouterConfig{}, 1};
  cfg.shards = 2;
  Network net(ctx, cfg);
  ASSERT_EQ(net.shard_count(), 2u);
  const NodeId src{0, 0};
  const NodeId dst{0, 3};
  ASSERT_NE(net.shard_of(net.topology().index(src)),
            net.shard_of(net.topology().index(dst)))
      << "the connection must cross the cut";
  ConnectionManager mgr(net, src);
  const Connection& conn = mgr.open_direct(src, dst);
  std::uint64_t delivered = 0;
  net.na(dst).set_gs_handler(
      [&](LocalIfaceIdx, Flit&&, sim::Time) { ++delivered; });
  GsStreamSource gs(net.na(src), conn.src_iface, 1,
                    GsStreamSource::Options{});  // period 0: saturate
  gs.start();

  // Warm-up: the outboxes, the kernels' lanes, the fold ledgers and the
  // admission scratch grow to their steady-state capacities.
  const sim::Time warm = 5000000;
  net.run_until(warm);
  ASSERT_GT(delivered, 0u);

  const std::uint64_t windows = net.windows_run();
  const std::uint64_t flits = delivered;
  const std::uint64_t before = g_allocs.load();
  net.run_until(warm + 2000 * net.min_link_latency());
  const std::uint64_t allocs = g_allocs.load() - before;
  ASSERT_GE(net.windows_run() - windows, 1000u);
  ASSERT_GT(delivered, flits);
  EXPECT_EQ(allocs, 0u) << (net.windows_run() - windows) << " windows with "
                        << (delivered - flits) << " boundary flits allocated "
                        << allocs << " times";
}

}  // namespace
