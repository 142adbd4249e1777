#include "noc/traffic/workload.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "model/timing.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

namespace {

void attach_hub_to_na(NetworkAdapter& na, MeasurementHub& hub) {
  // Measurement is passive: the timed handlers receive the delivery
  // instant as an argument, letting the NA fold the final wire hop
  // instead of scheduling one event per delivered flit/packet. The
  // recycle pool is the NA's own shard's (the handler runs there).
  sim::VectorPool<Flit>& pool = na.router().ctx().pools().vectors<Flit>();
  na.set_gs_handler_timed([&hub](LocalIfaceIdx, Flit&& f, sim::Time at) {
    hub.record_gs_flit(at, f);
  });
  na.set_be_handler_timed([&hub, &pool](BePacket&& pkt, sim::Time at) {
    hub.record_be_packet(at, pkt);
    // Measurement consumed the packet: recycle its flit storage.
    pool.release(std::move(pkt.flits));
  });
}

}  // namespace

void attach_hub(Network& net, MeasurementHub& hub) {
  MANGO_ASSERT(net.shard_count() == 1,
               "attach_hub(MeasurementHub) on a sharded network — a single "
               "hub cannot be shared across shard kernels; use the HubSet "
               "overload");
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    attach_hub_to_na(net.na(net.node_at(i)), hub);
  }
}

void attach_hub(Network& net, HubSet& hubs) {
  MANGO_ASSERT(hubs.size() == net.shard_count(),
               "HubSet size " + std::to_string(hubs.size()) +
                   " != shard count " + std::to_string(net.shard_count()));
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    attach_hub_to_na(net.na(net.node_at(i)), hubs.shard(net.shard_of(i)));
  }
}

std::vector<std::unique_ptr<BeTrafficSource>> start_uniform_be(
    Network& net, sim::Time mean_interarrival_ps, unsigned payload_words,
    std::uint64_t seed, sim::Time start_at) {
  BePatternOptions popt;
  return start_pattern_be(net, BePattern::kUniform, popt, mean_interarrival_ps,
                          payload_words, seed, start_at);
}

std::unique_ptr<GsStreamSource> saturate_connection(Network& net,
                                                    ConnectionManager& mgr,
                                                    NodeId src, NodeId dst,
                                                    std::uint32_t tag,
                                                    sim::Time start_at) {
  const Connection& conn = mgr.open_direct(src, dst);
  GsStreamSource::Options opt;  // period 0 = saturate
  auto gen = std::make_unique<GsStreamSource>(net.na(src), conn.src_iface,
                                              tag, opt);
  gen->start(start_at);
  return gen;
}

double link_capacity_flits_per_ns(const Network& net) {
  const StageDelays d = stage_delays(net.config().router.corner);
  return 1000.0 / static_cast<double>(d.arb_cycle);
}

// --- BE patterns -----------------------------------------------------------

const char* to_string(BePattern p) {
  switch (p) {
    case BePattern::kUniform: return "uniform";
    case BePattern::kTranspose: return "transpose";
    case BePattern::kBitComplement: return "bit-complement";
    case BePattern::kTornado: return "tornado";
    case BePattern::kHotspot: return "hotspot";
    case BePattern::kBursty: return "bursty";
  }
  return "?";
}

std::optional<BePattern> be_pattern_from_string(const std::string& s) {
  for (const BePattern p : all_be_patterns()) {
    if (s == to_string(p)) return p;
  }
  return std::nullopt;
}

std::vector<BePattern> all_be_patterns() {
  return {BePattern::kUniform,  BePattern::kTranspose,
          BePattern::kBitComplement, BePattern::kTornado,
          BePattern::kHotspot, BePattern::kBursty};
}

bool pattern_supported(BePattern p, const Topology& topo) {
  switch (p) {
    case BePattern::kUniform:
    case BePattern::kHotspot:
    case BePattern::kBursty:
    case BePattern::kBitComplement:
      return true;  // only need the node enumeration
    case BePattern::kTranspose:
      // The index form i -> i*w mod (N-1) needs a meaningful row width.
      return topo.kind() == TopologyKind::kMesh ||
             topo.kind() == TopologyKind::kTorus ||
             topo.kind() == TopologyKind::kCMesh;
    case BePattern::kTornado:
      // Half-extent offsets need fabric dimensions.
      return topo.kind() != TopologyKind::kGraph;
  }
  return false;
}

std::optional<NodeId> pattern_dst(BePattern p, NodeId src,
                                  const Topology& topo) {
  MANGO_ASSERT(topo.contains(src), "pattern source not in the topology");
  MANGO_ASSERT(pattern_supported(p, topo),
               std::string("BE pattern '") + to_string(p) +
                   "' is not defined on topology " + topo.label() +
                   " — pick a supported pattern (see pattern_supported)");
  const std::uint16_t w = topo.spec().width;
  const std::uint16_t h = topo.spec().height;
  const std::size_t n = topo.node_count();
  NodeId dst = src;
  switch (p) {
    case BePattern::kTranspose: {
      // Row-major matrix transpose as an index permutation:
      // i -> (i*w) mod (N-1), last index fixed. Always a bijection
      // (gcd(w, w*h-1) = 1) and equal to the (x,y)->(y,x) coordinate
      // swap on square grids (mesh and torus).
      const std::size_t i = topo.index(src);
      if (n < 2 || i == n - 1) return std::nullopt;
      dst = topo.node_at((i * w) % (n - 1));
      break;
    }
    case BePattern::kBitComplement: {
      // Linear-index complement: i -> N-1-i (coordinate complement on
      // power-of-two grids, well defined on any node enumeration).
      dst = topo.node_at(n - 1 - topo.index(src));
      break;
    }
    case BePattern::kTornado:
      // Half-extent offset in each dimension; on a ring this is the
      // classic half-ring shift i -> (i + N/2) mod N.
      if (topo.kind() == TopologyKind::kRing) {
        dst = topo.node_at((topo.index(src) + n / 2) % n);
      } else {
        dst = NodeId{static_cast<std::uint16_t>((src.x + w / 2) % w),
                     static_cast<std::uint16_t>((src.y + h / 2) % h)};
      }
      break;
    case BePattern::kUniform:
    case BePattern::kHotspot:
    case BePattern::kBursty:
      return std::nullopt;  // stochastic: no fixed destination
  }
  if (dst == src) return std::nullopt;  // self-mapped nodes stay silent
  return dst;
}

namespace {

NodeId pick_uniform_other(NodeId src, const Topology& topo, sim::Rng& rng) {
  const std::size_t n = topo.node_count();
  for (;;) {
    const NodeId cand = topo.node_at(rng.next_below(n));
    if (cand != src) return cand;
  }
}

}  // namespace

NodeId pattern_pick_dst(BePattern p, NodeId src, const Topology& topo,
                        const BePatternOptions& opt, sim::Rng& rng) {
  MANGO_ASSERT(topo.node_count() > 1, "pattern needs at least two nodes");
  switch (p) {
    case BePattern::kHotspot:
      if (src != opt.hotspot && rng.next_bool(opt.hotspot_fraction)) {
        return opt.hotspot;
      }
      return pick_uniform_other(src, topo, rng);
    case BePattern::kUniform:
    case BePattern::kBursty:
      return pick_uniform_other(src, topo, rng);
    default: {
      const std::optional<NodeId> d = pattern_dst(p, src, topo);
      MANGO_ASSERT(d.has_value(), "pattern_pick_dst on a silent node");
      return *d;
    }
  }
}

std::vector<std::unique_ptr<BeTrafficSource>> start_pattern_be(
    Network& net, BePattern pattern, const BePatternOptions& popt,
    sim::Time mean_interarrival_ps, unsigned payload_words,
    std::uint64_t seed, sim::Time start_at) {
  const Topology& topo = net.topology();
  MANGO_ASSERT(pattern_supported(pattern, topo),
               std::string("BE pattern '") + to_string(pattern) +
                   "' is not defined on topology " + topo.label() +
                   " — pick a supported pattern (see pattern_supported)");
  // Concentration: k cores share each router's local port, so a
  // concentrated mesh runs k independent sources per node. Tag and seed
  // derivation generalize the one-source scheme (core j of node i is
  // flow i*k + j), which makes k = 1 bit-identical to the historical
  // per-node layout.
  const std::size_t conc = topo.spec().concentration;
  std::vector<std::unique_ptr<BeTrafficSource>> sources;
  sources.reserve(net.node_count() * conc);
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const NodeId n = net.node_at(i);
    BeTrafficSource::Options opt;
    opt.mean_interarrival_ps = mean_interarrival_ps;
    opt.payload_words = payload_words;
    switch (pattern) {
      case BePattern::kTranspose:
      case BePattern::kBitComplement:
      case BePattern::kTornado: {
        const std::optional<NodeId> d = pattern_dst(pattern, n, topo);
        if (!d.has_value()) continue;  // self-mapped: silent node
        opt.fixed_dst = *d;
        break;
      }
      case BePattern::kBursty:
        opt.burst_on_mean_ps = popt.burst_on_mean_ps;
        opt.burst_off_mean_ps = popt.burst_off_mean_ps;
        [[fallthrough]];
      case BePattern::kUniform:
      case BePattern::kHotspot:
        // Stochastic patterns all sample through pattern_pick_dst, the
        // single implementation the distribution tests exercise.
        opt.dst_picker = [pattern, n, &topo, popt](sim::Rng& rng) {
          return pattern_pick_dst(pattern, n, topo, popt, rng);
        };
        break;
    }
    for (std::size_t j = 0; j < conc; ++j) {
      const std::size_t flow = i * conc + j;
      opt.seed = seed + flow;
      sources.push_back(std::make_unique<BeTrafficSource>(
          net, n, kBeTagBase + static_cast<std::uint32_t>(flow), opt));
      sources.back()->start(start_at);
    }
  }
  return sources;
}

// --- GS connection sets ----------------------------------------------------

const char* to_string(GsSetKind k) {
  switch (k) {
    case GsSetKind::kNone: return "none";
    case GsSetKind::kRing: return "ring";
    case GsSetKind::kRandomPairs: return "random-pairs";
    case GsSetKind::kAllToHotspot: return "all-to-hotspot";
  }
  return "?";
}

std::optional<GsSetKind> gs_set_from_string(const std::string& s) {
  for (const GsSetKind k :
       {GsSetKind::kNone, GsSetKind::kRing, GsSetKind::kRandomPairs,
        GsSetKind::kAllToHotspot}) {
    if (s == to_string(k)) return k;
  }
  return std::nullopt;
}

namespace {

/// Opens src->dst directly; returns nullopt when VC/interface resources
/// along the path are exhausted (the manager rolls back before throwing).
std::optional<GsSetEndpoint> try_open(ConnectionManager& mgr, NodeId src,
                                      NodeId dst, std::uint32_t tag) {
  try {
    const Connection& c = mgr.open_direct(src, dst);
    return GsSetEndpoint{c.id, src, dst, c.src_iface, tag};
  } catch (const ModelError&) {
    return std::nullopt;
  }
}

}  // namespace

std::vector<GsSetEndpoint> open_gs_set(Network& net, ConnectionManager& mgr,
                                       GsSetKind kind,
                                       const GsSetOptions& opt) {
  std::vector<GsSetEndpoint> eps;
  const std::size_t n = net.node_count();
  std::uint32_t tag = kGsTagBase;
  switch (kind) {
    case GsSetKind::kNone:
      break;
    case GsSetKind::kRing:
      if (n < 2) break;
      for (std::size_t i = 0; i < n; ++i) {
        const NodeId src = net.node_at(i);
        const NodeId dst = net.node_at((i + 1) % n);
        if (auto ep = try_open(mgr, src, dst, tag)) {
          eps.push_back(*ep);
          ++tag;
        }
      }
      break;
    case GsSetKind::kRandomPairs: {
      if (n < 2) break;
      sim::Rng rng(opt.seed);
      // Bounded resampling keeps the loop finite under exhaustion.
      unsigned attempts = opt.pair_count * 8 + 8;
      while (eps.size() < opt.pair_count && attempts-- > 0) {
        const NodeId src = net.node_at(rng.next_below(n));
        const NodeId dst = net.node_at(rng.next_below(n));
        if (src == dst) continue;
        if (auto ep = try_open(mgr, src, dst, tag)) {
          eps.push_back(*ep);
          ++tag;
        }
      }
      break;
    }
    case GsSetKind::kAllToHotspot:
      MANGO_ASSERT(net.topology().contains(opt.hotspot),
                   "hotspot out of bounds");
      for (std::size_t i = 0; i < n; ++i) {
        const NodeId src = net.node_at(i);
        if (src == opt.hotspot) continue;
        auto ep = try_open(mgr, src, opt.hotspot, tag);
        if (!ep.has_value()) break;  // dst sink interfaces exhausted
        eps.push_back(*ep);
        ++tag;
      }
      break;
  }
  return eps;
}

std::vector<std::unique_ptr<GsStreamSource>> start_gs_set(
    Network& net, const std::vector<GsSetEndpoint>& endpoints,
    const GsStreamSource::Options& opt, sim::Time start_at) {
  std::vector<std::unique_ptr<GsStreamSource>> sources;
  sources.reserve(endpoints.size());
  for (const GsSetEndpoint& ep : endpoints) {
    sources.push_back(std::make_unique<GsStreamSource>(
        net.na(ep.src), ep.src_iface, ep.tag, opt));
    sources.back()->start(start_at);
  }
  return sources;
}

// --- connection churn ------------------------------------------------------

namespace {

/// Drain poll cadence: after stopping a stream the workload waits until
/// delivered == generated before requesting the close.
constexpr sim::Time kDrainPollPs = 1000;
/// A connection still short of delivered == generated this long after
/// its stream stopped has lost flits — counted as a violation. Must
/// comfortably exceed the worst-case in-flight drain (a few hops of
/// worst-case fair-share latency, ~100 ns on a 4x4 fabric).
constexpr sim::Time kDrainGracePs = 500000;

}  // namespace

ChurnWorkload::ChurnWorkload(Network& net, ConnectionBroker& broker,
                             HubSet& hub, ChurnOptions opt)
    : net_(net),
      broker_(broker),
      hub_(hub),
      opt_(opt),
      rng_(opt.seed ^ 0xC3A5C85C97CB3127ull),
      sim_(net.simulator()),
      ctrl_(net.control()) {
  MANGO_ASSERT(opt_.mean_open_interarrival_ps > 0,
               "churn needs a positive open interarrival");
  MANGO_ASSERT(opt_.mean_hold_ps > 0, "churn needs a positive holding time");
  MANGO_ASSERT(opt_.gs_period_ps > 0,
               "churn streams must be CBR (period > 0): a saturating "
               "stream never drains for teardown");
  // A stream faster than its VC's worst-case service rate backs up in
  // the NA source queue, and the post-stop drain need not finish. The
  // service time is a whole number of ps (V arbitration cycles or one
  // VC handshake loop); llround only undoes the division's rounding.
  const NetworkConfig& cfg = net_.config();
  const auto min_period = static_cast<sim::Time>(
      std::llround(1000.0 / model::fair_share_guarantee_flits_per_ns(
                                cfg.router.corner, cfg.router.vcs_per_port,
                                cfg.link_pipeline_stages)));
  MANGO_ASSERT(opt_.gs_period_ps >= min_period,
               "churn GS period " + std::to_string(opt_.gs_period_ps) +
                   " ps is below the worst-case per-VC service time " +
                   std::to_string(min_period) + " ps");
  MANGO_ASSERT(net_.node_count() > 1, "churn needs at least two nodes");
}

void ChurnWorkload::start(sim::Time at) {
  ctrl_.post_at(sim_, std::max(at, sim_.now()),
                [this] { schedule_next_open(); });
}

void ChurnWorkload::schedule_next_open() {
  const auto gap = std::max<sim::Time>(
      1, static_cast<sim::Time>(rng_.next_exponential(
             static_cast<double>(opt_.mean_open_interarrival_ps))));
  ctrl_.post_at(sim_, sim_.now() + gap, [this] {
    open_one();
    schedule_next_open();
  });
}

void ChurnWorkload::open_one() {
  const std::size_t n = net_.node_count();
  const NodeId src = net_.node_at(rng_.next_below(n));
  NodeId dst = src;
  while (dst == src) dst = net_.node_at(rng_.next_below(n));

  const std::size_t k = slots_.size();
  slots_.emplace_back();
  // The reject callback can fire synchronously inside request_open; the
  // slot is pushed first so both callbacks resolve it by index.
  const RequestId req = broker_.request_open(
      src, dst,
      [this, k](RequestId, const Connection& c) { on_ready(k, c); },
      [this, k](RequestId) { slots_[k].state = SlotState::kRejected; });
  slots_[k].req = req;
}

void ChurnWorkload::on_ready(std::size_t k, const Connection& c) {
  Slot& s = slots_[k];
  s.state = SlotState::kStreaming;
  s.tag = kChurnTagBase + static_cast<std::uint32_t>(k);
  GsStreamSource::Options go;
  go.period_ps = opt_.gs_period_ps;
  s.source = std::make_unique<GsStreamSource>(net_.na(c.src), c.src_iface,
                                              s.tag, go);
  s.source->start(sim_.now());
  const auto hold = std::max<sim::Time>(
      1, static_cast<sim::Time>(
             rng_.next_exponential(static_cast<double>(opt_.mean_hold_ps))));
  ctrl_.post_at(sim_, sim_.now() + hold, [this, k] { stop_stream(k); });
}

void ChurnWorkload::stop_stream(std::size_t k) {
  Slot& s = slots_[k];
  s.source->stop();
  s.state = SlotState::kDrainWait;
  s.drain_started_at = sim_.now();
  poll_drained(k);
}

std::uint64_t ChurnWorkload::delivered(const Slot& s) const {
  return hub_.flow_flits(s.tag);
}

void ChurnWorkload::poll_drained(std::size_t k) {
  Slot& s = slots_[k];
  if (delivered(s) != s.source->generated()) {
    ctrl_.post_at(sim_, sim_.now() + kDrainPollPs,
                  [this, k] { poll_drained(k); });
    return;
  }
  // Everything this connection generated has been delivered: the whole
  // path (NA queue included) is empty, so the clear packets cannot race
  // live flits.
  s.generated_at_close = s.source->generated();
  s.delivered_at_close = delivered(s);
  s.state = SlotState::kCloseRequested;
  ++closes_requested_;
  broker_.request_close(
      s.req, [this, k](RequestId) { slots_[k].state = SlotState::kClosed; });
}

ChurnWorkload::Totals ChurnWorkload::finalize(sim::Time horizon) const {
  Totals t;
  t.opens_requested = slots_.size();
  t.closes_requested = closes_requested_;
  for (const Slot& s : slots_) {
    if (s.state == SlotState::kRejected || s.source == nullptr) continue;
    ++t.streams_started;
    if (s.state == SlotState::kClosed) ++t.closes_completed;
    const std::uint64_t got = delivered(s);
    t.flits_generated += s.source->generated();
    t.flits_delivered += got;
    const std::uint64_t seq = hub_.flow_seq_errors(s.tag);
    t.seq_errors += seq;
    bool violated = seq > 0;
    // A stream stopped long before the horizon whose flits never all
    // arrived lost them somewhere (drain-wait connections at the very
    // edge of the horizon get grace — they are still legally in flight).
    if (s.state == SlotState::kDrainWait && got < s.source->generated() &&
        horizon > s.drain_started_at &&
        horizon - s.drain_started_at > kDrainGracePs) {
      violated = true;
    }
    if (s.state == SlotState::kClosed &&
        s.delivered_at_close != s.generated_at_close) {
      violated = true;
    }
    if (violated) ++t.violations;
  }
  return t;
}

}  // namespace mango::noc
