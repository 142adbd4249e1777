// Measurement-sink contracts:
//
//  * HubSet::append_latency_samples returns a GS flow's samples in
//    delivery order and a BE flow's samples as the delivered multiset,
//    at one shard and at four (where BE flows spread across hubs).
//  * Recording is cheap in memory: at most 5 heap bytes per sample,
//    amortized (4-byte picosecond words in fixed blocks), and at most
//    1.5 when latencies repeat in runs (one run word per run).
//  * A log allocates nothing until its first sample, and a short flow
//    costs one small block.
//  * exp::collect_stats selects its quantiles over the logs in place:
//    its allocation grows neither with the samples nor with the
//    distinct values.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "exp/scenario.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "noc/traffic/sink.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/context.hpp"

using namespace mango;
using namespace mango::noc;

// --- global allocation counter (bytes requested from operator new) ---------

namespace {
std::atomic<std::uint64_t> g_bytes{0};
}

void* operator new(std::size_t size) {
  g_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  g_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them),
// so every pointer freed below came from malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_bytes += size;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_bytes += size;
  return std::malloc(size);
}
namespace {
/// Out of line, so that GCC never inlines a replaced operator delete into
/// a caller and then flags operator new's pointer reaching free()
/// (-Wmismatched-new-delete cannot see that these operators pair
/// malloc with free).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace {

// --- 1. append_latency_samples order contract -------------------------------

/// Per tag, every delivered latency (as sim::to_ns) in delivery order.
using SampleMap = std::map<std::uint32_t, std::vector<double>>;

struct OrderRun {
  SampleMap delivered;  ///< recorded beside the hub by the NA handlers
  SampleMap appended;   ///< HubSet::append_latency_samples per tag
  std::vector<std::uint32_t> gs_tags;
  unsigned hubs = 0;
  unsigned max_hubs_per_be_flow = 0;
};

OrderRun run_ring_and_uniform(unsigned shards) {
  sim::SimContext ctx(7);
  NetworkConfig cfg;
  cfg.topology = TopologySpec::mesh(4, 4);
  cfg.shards = shards;
  Network net(ctx, cfg);
  HubSet hubs(net.shard_count());

  // attach_hub's handlers, plus a per-NA delivery log. A GS flow
  // delivers at one NA, and each NA's handlers run on its own shard, so
  // every log is single-threaded and a GS flow's log is its delivery
  // order.
  struct Delivery {
    std::uint32_t tag;
    sim::Time ps;
  };
  std::vector<std::vector<Delivery>> seen(net.node_count());
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    NetworkAdapter& na = net.na(net.node_at(i));
    MeasurementHub& hub = hubs.shard(net.shard_of(i));
    std::vector<Delivery>& log = seen[i];
    sim::VectorPool<Flit>& pool = na.router().ctx().pools().vectors<Flit>();
    na.set_gs_handler(
        [&hub, &log](LocalIfaceIdx, Flit&& f, sim::Time at) {
          hub.record_gs_flit(at, f);
          log.push_back({f.tag, at - f.injected_at});
        });
    na.set_be_handler([&hub, &log, &pool](BePacket&& pkt, sim::Time at) {
      hub.record_be_packet(at, pkt);
      const Flit& header = pkt.flits.front();
      log.push_back({header.tag, at - header.injected_at});
      pool.release(std::move(pkt.flits));
    });
  }

  ConnectionManager mgr(net, net.node_at(0));
  const std::vector<GsSetEndpoint> eps =
      open_gs_set(net, mgr, GsSetKind::kRing, GsSetOptions{});
  GsStreamSource::Options gs_opt;
  gs_opt.period_ps = 0;  // saturating: GS deliveries interleave densely
  const auto gs = start_gs_set(net, eps, gs_opt);
  const auto be = start_pattern_be(net, BePattern::kUniform,
                                   BePatternOptions{}, 6000, 4, 3);
  net.run_until(300000);

  OrderRun r;
  r.hubs = hubs.size();
  for (const auto& log : seen) {
    for (const Delivery& d : log) {
      r.delivered[d.tag].push_back(sim::to_ns(d.ps));
    }
  }
  for (const std::uint32_t tag : hubs.tags()) {
    hubs.append_latency_samples(tag, r.appended[tag]);
    if (tag >= kBeTagBase) {
      unsigned holders = 0;
      for (unsigned s = 0; s < hubs.size(); ++s) {
        holders += hubs.shard(s).has_flow(tag) ? 1 : 0;
      }
      r.max_hubs_per_be_flow = std::max(r.max_hubs_per_be_flow, holders);
    }
  }
  for (const GsSetEndpoint& ep : eps) r.gs_tags.push_back(ep.tag);
  return r;
}

TEST(HubSetSamples, GsInDeliveryOrderBeAsTheSameMultiset) {
  for (const unsigned shards : {1u, 4u}) {
    const OrderRun r = run_ring_and_uniform(shards);
    ASSERT_EQ(r.hubs, shards);
    ASSERT_FALSE(r.gs_tags.empty());
    if (shards > 1) {
      // Some BE flow really was merged across hubs.
      EXPECT_GT(r.max_hubs_per_be_flow, 1u);
    }
    ASSERT_EQ(r.appended.size(), r.delivered.size()) << shards;
    std::size_t be_flows = 0;
    for (const auto& [tag, delivered] : r.delivered) {
      ASSERT_TRUE(r.appended.count(tag)) << tag;
      std::vector<double> appended = r.appended.at(tag);
      ASSERT_FALSE(delivered.empty());
      if (std::find(r.gs_tags.begin(), r.gs_tags.end(), tag) !=
          r.gs_tags.end()) {
        EXPECT_EQ(appended, delivered) << "GS tag " << tag << " shards "
                                       << shards;
      } else {
        ASSERT_GE(tag, kBeTagBase);
        ++be_flows;
        std::vector<double> want = delivered;
        std::sort(want.begin(), want.end());
        std::sort(appended.begin(), appended.end());
        EXPECT_EQ(appended, want) << "BE tag " << tag << " shards " << shards;
      }
    }
    EXPECT_GT(be_flows, 0u);
  }
}

// --- 2. heap cost of the record path ---------------------------------------

TEST(SinkMemory, RecordingCostsAtMostFiveHeapBytesPerSample) {
  constexpr std::uint32_t kFlows = 8;
  constexpr std::uint64_t kRounds = 1u << 16;
  BePacket pkt;
  pkt.flits.resize(5);
  Flit f;
  MeasurementHub hub;
  sim::Time now = 100000;

  const std::uint64_t before = g_bytes.load();
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    // Interleaved flows: every record misses the last-flow cache.
    for (std::uint32_t k = 0; k < kFlows; ++k) {
      now += 97;
      f.tag = kGsTagBase + k;
      f.seq = i;
      f.injected_at = now - (4000 + (i * 7 + k) % 911);
      hub.record_gs_flit(now, f);
      pkt.flits.front().tag = kBeTagBase + k;
      pkt.flits.front().injected_at = now - (9000 + (i * 13 + k) % 4099);
      hub.record_be_packet(now, pkt);
    }
  }
  const std::uint64_t bytes = g_bytes.load() - before;
  const std::uint64_t samples = 2 * kFlows * kRounds;
  ASSERT_EQ(hub.total_flits(), kFlows * kRounds * (1 + pkt.size()));
  EXPECT_LE(bytes, 5 * samples) << static_cast<double>(bytes) / samples
                                << " bytes per sample";
}

TEST(SinkMemory, GsRunsOfSixCostAtMostOneAndAHalfHeapBytesPerSample) {
  // A saturated GS stream delivers runs of equal latencies (about six a
  // run on the 8x8 ring set); the log keeps a sample word and a run word
  // per run, 1.45 bytes a sample here against 4.2 for a word a sample.
  constexpr std::uint32_t kFlows = 8;
  constexpr std::uint64_t kRounds = 6u << 13;
  Flit f;
  MeasurementHub hub;
  sim::Time now = 100000;

  const std::uint64_t before = g_bytes.load();
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    for (std::uint32_t k = 0; k < kFlows; ++k) {
      now += 97;
      f.tag = kGsTagBase + k;
      f.seq = i;
      f.injected_at = now - (4000 + ((i / 6) * 7 + k) % 911);
      hub.record_gs_flit(now, f);
    }
  }
  const std::uint64_t bytes = g_bytes.load() - before;
  const std::uint64_t samples = kFlows * kRounds;
  ASSERT_EQ(hub.total_flits(), samples);
  EXPECT_LE(bytes, 3 * samples / 2) << static_cast<double>(bytes) / samples
                                    << " bytes per sample";
}

TEST(SinkMemory, WideRunKeepsOneSideEntry) {
  // 2^16 equal latencies beyond the wide mark: one mark, one side entry
  // and a run word, not a side entry per sample.
  Flit f;
  f.tag = kGsTagBase;
  f.injected_at = 0;
  MeasurementHub hub;
  hub.flow(f.tag);  // the slot's own allocation is not the log's
  const std::uint64_t before = g_bytes.load();
  for (std::uint64_t i = 0; i < (1u << 16); ++i) {
    f.seq = i;
    hub.record_gs_flit(sim::Time{1} << 40, f);
  }
  const std::uint64_t bytes = g_bytes.load() - before;
  EXPECT_LE(bytes, 1024u) << bytes << " bytes";
  std::uint64_t n = 0;
  hub.find_flow(f.tag)->latency_ns.for_each([&](sim::Time ps) {
    EXPECT_EQ(ps, sim::Time{1} << 40);
    ++n;
  });
  EXPECT_EQ(n, 1u << 16);
}

TEST(SinkMemory, FlowWithoutSamplesAllocatesNoLogMemory) {
  const std::uint64_t before = g_bytes.load();
  {
    const FlowStats idle;
    EXPECT_EQ(idle.latency_ns.count(), 0u);
    EXPECT_EQ(idle.latency_ns.max(), 0.0);
  }
  EXPECT_EQ(g_bytes.load() - before, 0u);
}

TEST(SinkMemory, TenSampleFlowsCostAtMost128LogBytesEach) {
  // The churn and ring workloads open hundreds of flows, many of which
  // deliver a handful of flits: each costs one small first block (a
  // fixed-block container would cost its full block and map up front).
  constexpr std::size_t kFlows = 1000;
  // The slots' own storage is not the logs': allocate it first.
  void* slots = ::operator new(kFlows * sizeof(FlowStats));
  FlowStats* flows = static_cast<FlowStats*>(slots);
  const std::uint64_t before = g_bytes.load();
  for (std::size_t k = 0; k < kFlows; ++k) {
    FlowStats* s = new (&flows[k]) FlowStats;
    for (sim::Time i = 0; i < 10; ++i) s->latency_ns.add(4000 + 31 * i + k);
  }
  const std::uint64_t bytes = g_bytes.load() - before;
  EXPECT_LE(bytes, 128 * kFlows)
      << static_cast<double>(bytes) / kFlows << " bytes per flow";
  for (std::size_t k = 0; k < kFlows; ++k) {
    EXPECT_EQ(flows[k].latency_ns.count(), 10u);
    flows[k].~FlowStats();
  }
  ::operator delete(slots);
}

// --- 3. collect_stats allocation is constant -------------------------------

/// Heap bytes exp::collect_stats requests for a 2x2 mesh whose hub holds
/// `per_flow` samples on each of 4 GS and 4 BE flows, drawn from 64
/// distinct latencies per flow.
std::uint64_t collect_bytes(std::uint64_t per_flow) {
  sim::SimContext ctx;
  NetworkConfig cfg;
  cfg.topology = TopologySpec::mesh(2, 2);
  Network net(ctx, cfg);
  HubSet hubs(1);
  MeasurementHub& hub = hubs.shard(0);
  exp::ScenarioSpec spec;
  spec.width = spec.height = 2;
  spec.duration_ps = 1000000;
  std::vector<GsSetEndpoint> eps(4);
  BePacket pkt;
  pkt.flits.resize(2);
  sim::Time now = 50000;
  for (std::uint32_t k = 0; k < 4; ++k) {
    eps[k].tag = kGsTagBase + k;
    for (std::uint64_t i = 0; i < per_flow; ++i) {
      now += 10;
      Flit f;
      f.tag = eps[k].tag;
      f.seq = i;
      f.injected_at = now - (4000 + 17 * (i % 64) + k);
      hub.record_gs_flit(now, f);
      pkt.flits.front().tag = kBeTagBase + k;
      pkt.flits.front().injected_at = now - (20000 + 53 * (i % 64));
      hub.record_be_packet(now, pkt);
    }
  }

  const std::uint64_t before = g_bytes.load();
  const exp::ScenarioStats st =
      exp::collect_stats(spec, net, hubs, eps, nullptr, nullptr);
  const std::uint64_t bytes = g_bytes.load() - before;
  EXPECT_EQ(st.gs_flits_delivered, 4 * per_flow);
  EXPECT_EQ(st.be_packets_delivered, 4 * per_flow);
  EXPECT_GT(st.gs_latency_max_ns, 4.0);
  return bytes;
}

TEST(SinkMemory, CollectStatsAllocatesPerDistinctValueNotPerSample) {
  const std::uint64_t small = collect_bytes(1000);
  const std::uint64_t large = collect_bytes(64000);
  // 504K more samples; a per-sample copy would add megabytes.
  EXPECT_LE(large, small + 1024) << "small " << small << " large " << large;
}

/// Heap bytes exp::collect_stats requests for a 2x2 mesh whose hub holds
/// 4 BE flows of `per_flow` packets each, every latency distinct.
std::uint64_t collect_bytes_distinct(std::uint64_t per_flow) {
  sim::SimContext ctx;
  NetworkConfig cfg;
  cfg.topology = TopologySpec::mesh(2, 2);
  Network net(ctx, cfg);
  HubSet hubs(1);
  MeasurementHub& hub = hubs.shard(0);
  exp::ScenarioSpec spec;
  spec.width = spec.height = 2;
  spec.duration_ps = 1000000;
  BePacket pkt;
  pkt.flits.resize(2);
  sim::Time now = 50000;
  for (std::uint64_t i = 0; i < per_flow; ++i) {
    for (std::uint32_t k = 0; k < 4; ++k) {
      now += 10;
      pkt.flits.front().tag = kBeTagBase + k;
      pkt.flits.front().injected_at = now - (20000 + 4 * i + k);
      hub.record_be_packet(now, pkt);
    }
  }

  const std::uint64_t before = g_bytes.load();
  const exp::ScenarioStats st =
      exp::collect_stats(spec, net, hubs, {}, nullptr, nullptr);
  const std::uint64_t bytes = g_bytes.load() - before;
  EXPECT_EQ(st.be_packets_delivered, 4 * per_flow);
  return bytes;
}

TEST(SinkMemory, CollectStatsRequestsAtMostSixtyFourBytesPerDistinctValue) {
  // 20k distinct BE latencies. A hash-map node per distinct value plus
  // a sorted copy per quantile requested 104 bytes per value; flat
  // 16-byte (value, count) entries grown by doubling request 52.
  constexpr std::uint64_t kDistinct = 20000;
  const std::uint64_t bytes = collect_bytes_distinct(kDistinct / 4);
  EXPECT_LE(bytes, 64 * kDistinct)
      << static_cast<double>(bytes) / kDistinct << " bytes per distinct value";
}

TEST(SinkMemory, CollectStatsMemoryIsIndependentOfDistinctLatencies) {
  // Quantiles are selected over the logs in place, so 200k distinct BE
  // latencies cost what 20k do: no histogram entry per distinct value.
  for (const std::uint64_t distinct : {20000u, 200000u}) {
    const std::uint64_t bytes = collect_bytes_distinct(distinct / 4);
    EXPECT_LE(bytes, 64u * 1024) << distinct << " distinct latencies";
  }
}

}  // namespace
