// Measurement sinks: per-flow latency/throughput/ordering statistics.
//
// The hub sits on the delivery hot path (one record_* call per delivered
// GS flit / BE packet), so flow stats live in dense, index-addressed
// storage: each tag is assigned a stable slot on first sight (in
// practice at traffic setup, before the measured window), records find
// it through a last-flow cache backed by an O(1) open-addressed tag map
// (interleaved GS deliveries miss the cache on most records), and
// iteration follows a sorted tag index so reports are byte-stable.
// Latencies are logged as 4-byte integer-picosecond counts in delivery
// order; aggregates are built by counting (sim::LatencyHistogram), never
// by concatenating samples.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "noc/common/flit.hpp"
#include "noc/common/packet.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace mango::noc {

/// Statistics of one measured flow (GS connection or BE packet stream),
/// keyed by the flit tag.
struct FlowStats {
  /// Per flit (GS) or per packet (BE), in delivery order; stored in ps,
  /// quantiles read in ns.
  sim::LatencyLog latency_ns;
  sim::ThroughputMeter throughput; ///< flits (GS) / packets (BE)
  std::uint64_t flits = 0;
  std::uint64_t packets = 0;
  std::uint64_t seq_errors = 0;   ///< out-of-order or lost flits
  std::uint64_t next_seq = 0;

  /// Delivered flit rate in flits per nanosecond over [t0, t1].
  double flits_per_ns(sim::Time t0, sim::Time t1) const {
    if (t1 <= t0) return 0.0;
    return static_cast<double>(flits) / sim::to_ns(t1 - t0);
  }
};

class MeasurementHub;

/// One MeasurementHub per shard. The record path runs inside the
/// delivering NA's shard kernel, so each hub is only ever touched by one
/// thread; readers merge by tag after (or between) windows. A GS flow is
/// delivered entirely at one NA and therefore lives in exactly one hub
/// (its seq tracking and sample order stay intact); a BE flow (keyed by
/// its *source* tag) delivers at many NAs and may spread across hubs —
/// every merged read below is a sum, a count or a sample concatenation
/// whose consumers compute order-free quantiles, so the results are
/// shard-count invariant.
class HubSet {
 public:
  explicit HubSet(unsigned shards = 1);

  unsigned size() const { return static_cast<unsigned>(hubs_.size()); }
  MeasurementHub& shard(unsigned s);
  const MeasurementHub& shard(unsigned s) const;

  /// Applies the horizon to every hub (see MeasurementHub::set_horizon).
  void set_horizon(sim::Time h);

  // --- merged reads ---
  bool has_flow(std::uint32_t tag) const;
  std::uint64_t flow_flits(std::uint32_t tag) const;
  std::uint64_t flow_packets(std::uint32_t tag) const;
  std::uint64_t flow_seq_errors(std::uint32_t tag) const;
  /// Calls f(ps) for every latency sample of `tag`, hub by hub, each in
  /// delivery order. A GS flow has one contributing hub, so it visits a
  /// GS flow's samples in exact delivery order.
  template <class F>
  void for_each_latency(std::uint32_t tag, F&& f) const;
  /// Counts every latency sample of `tag` into `into`.
  void count_latencies(std::uint32_t tag, sim::LatencyHistogram& into) const;
  /// Appends every latency sample of `tag` as sim::to_ns(ps), in
  /// for_each_latency order (delivery order for a GS flow).
  void append_latency_samples(std::uint32_t tag,
                              std::vector<double>& out) const;
  /// Ascending, deduplicated tags across all hubs.
  std::vector<std::uint32_t> tags() const;

 private:
  /// Hubs hold interior pointers (index_/table_ -> slots_); a deque constructed
  /// once never moves or copies them.
  std::deque<MeasurementHub> hubs_;
};

/// Collects flow statistics; install its record_* hooks as NA handlers.
class MeasurementHub {
 public:
  /// Samples at delivery instants beyond `h` are ignored. Passive
  /// (timed) NA handlers hand flits over before their delivery instant;
  /// bounding the hub by the experiment horizon keeps "delivered within
  /// the horizon" semantics exact under run_until().
  void set_horizon(sim::Time h) { horizon_ = h; }

  /// Records a delivered GS flit (latency = now - injected_at).
  void record_gs_flit(sim::Time now, const Flit& f);

  /// Records a delivered BE packet (latency measured on the header).
  void record_be_packet(sim::Time now, const BePacket& pkt);

  /// Stats slot of `tag`, assigned on first access. References stay
  /// valid for the hub's lifetime (slots never move).
  FlowStats& flow(std::uint32_t tag) { return slot(tag); }
  const FlowStats* find_flow(std::uint32_t tag) const { return lookup(tag); }
  bool has_flow(std::uint32_t tag) const { return find_flow(tag) != nullptr; }

  std::size_t flow_count() const { return index_.size(); }

  /// Flows in ascending tag order (deterministic report iteration).
  std::vector<std::pair<std::uint32_t, const FlowStats*>> flows_by_tag() const;
  std::vector<std::pair<std::uint32_t, FlowStats*>> flows_by_tag() {
    return index_;
  }

  std::uint64_t total_flits() const;

 private:
  FlowStats& slot(std::uint32_t tag);
  FlowStats* lookup(std::uint32_t tag) const;
  void table_insert(std::uint32_t tag, FlowStats* s);
  /// First probe position of `tag` in table_ (Fibonacci hashing).
  std::size_t home(std::uint32_t tag) const {
    return static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ull) >>
                                    table_shift_);
  }

  /// Sorted (tag -> slot) index: report iteration order only.
  std::vector<std::pair<std::uint32_t, FlowStats*>> index_;
  /// Open-addressed (tag -> slot) map for record-path lookups: linear
  /// probing, power-of-two size, at most half full; a null slot marks an
  /// empty entry.
  std::vector<std::pair<std::uint32_t, FlowStats*>> table_;
  unsigned table_shift_ = 64;
  /// Stable storage: a deque never relocates existing elements.
  std::deque<FlowStats> slots_;
  /// Last flow touched — delivered traffic arrives in per-flow runs.
  std::uint32_t cached_tag_ = 0;
  FlowStats* cached_ = nullptr;
  sim::Time horizon_ = sim::kTimeNever;
};

template <class F>
void HubSet::for_each_latency(std::uint32_t tag, F&& f) const {
  for (const MeasurementHub& hub : hubs_) {
    if (const FlowStats* s = hub.find_flow(tag)) s->latency_ns.for_each(f);
  }
}

}  // namespace mango::noc
