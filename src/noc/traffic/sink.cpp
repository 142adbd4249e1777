#include "noc/traffic/sink.hpp"

#include <algorithm>

namespace mango::noc {

FlowStats* MeasurementHub::lookup(std::uint32_t tag) const {
  if (table_.empty()) return nullptr;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = home(tag);; i = (i + 1) & mask) {
    const auto& [t, s] = table_[i];
    if (s == nullptr || t == tag) return s;
  }
}

void MeasurementHub::table_insert(std::uint32_t tag, FlowStats* s) {
  if (2 * index_.size() > table_.size()) {
    // Rebuild at double size from the sorted index (which already holds
    // the new flow).
    const std::size_t size = std::max<std::size_t>(16, 2 * table_.size());
    table_.assign(size, {0, nullptr});
    table_shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(size));
    for (const auto& [t, f] : index_) table_insert(t, f);
    return;
  }
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(tag);
  while (table_[i].second != nullptr) i = (i + 1) & mask;
  table_[i] = {tag, s};
}

FlowStats& MeasurementHub::slot(std::uint32_t tag) {
  if (cached_ != nullptr && cached_tag_ == tag) return *cached_;
  FlowStats* s = lookup(tag);
  if (s == nullptr) {
    // First sight of this tag: assign a slot. Happens once per flow at
    // traffic setup, never in the steady-state record path.
    slots_.emplace_back();
    s = &slots_.back();
    index_.insert(std::lower_bound(index_.begin(), index_.end(), tag,
                                   [](const auto& e, std::uint32_t t) {
                                     return e.first < t;
                                   }),
                  {tag, s});
    table_insert(tag, s);
  }
  cached_tag_ = tag;
  cached_ = s;
  return *s;
}

std::vector<std::pair<std::uint32_t, const FlowStats*>>
MeasurementHub::flows_by_tag() const {
  std::vector<std::pair<std::uint32_t, const FlowStats*>> out;
  out.reserve(index_.size());
  for (const auto& [tag, s] : index_) out.emplace_back(tag, s);
  return out;
}

void MeasurementHub::record_gs_flit(sim::Time now, const Flit& f) {
  if (now > horizon_) return;
  FlowStats& s = slot(f.tag);
  ++s.flits;
  s.latency_ns.add(now - f.injected_at);
  s.throughput.record(now);
  if (f.seq != s.next_seq) ++s.seq_errors;
  s.next_seq = f.seq + 1;
}

void MeasurementHub::record_be_packet(sim::Time now, const BePacket& pkt) {
  if (pkt.empty() || now > horizon_) return;
  const Flit& header = pkt.flits.front();
  FlowStats& s = slot(header.tag);
  ++s.packets;
  s.flits += pkt.size();
  s.latency_ns.add(now - header.injected_at);
  s.throughput.record(now);
}

std::uint64_t MeasurementHub::total_flits() const {
  std::uint64_t n = 0;
  for (const auto& [tag, s] : index_) n += s->flits;
  return n;
}

// --- HubSet ----------------------------------------------------------------

HubSet::HubSet(unsigned shards) : hubs_(shards == 0 ? 1 : shards) {}

MeasurementHub& HubSet::shard(unsigned s) { return hubs_.at(s); }

const MeasurementHub& HubSet::shard(unsigned s) const { return hubs_.at(s); }

void HubSet::set_horizon(sim::Time h) {
  for (MeasurementHub& hub : hubs_) hub.set_horizon(h);
}

bool HubSet::has_flow(std::uint32_t tag) const {
  for (const MeasurementHub& hub : hubs_) {
    if (hub.has_flow(tag)) return true;
  }
  return false;
}

std::uint64_t HubSet::flow_flits(std::uint32_t tag) const {
  std::uint64_t n = 0;
  for (const MeasurementHub& hub : hubs_) {
    if (const FlowStats* f = hub.find_flow(tag)) n += f->flits;
  }
  return n;
}

std::uint64_t HubSet::flow_packets(std::uint32_t tag) const {
  std::uint64_t n = 0;
  for (const MeasurementHub& hub : hubs_) {
    if (const FlowStats* f = hub.find_flow(tag)) n += f->packets;
  }
  return n;
}

std::uint64_t HubSet::flow_seq_errors(std::uint32_t tag) const {
  std::uint64_t n = 0;
  for (const MeasurementHub& hub : hubs_) {
    if (const FlowStats* f = hub.find_flow(tag)) n += f->seq_errors;
  }
  return n;
}

void HubSet::count_latencies(std::uint32_t tag,
                             sim::LatencyHistogram& into) const {
  for (const MeasurementHub& hub : hubs_) {
    if (const FlowStats* f = hub.find_flow(tag)) f->latency_ns.count_into(into);
  }
}

void HubSet::append_latency_samples(std::uint32_t tag,
                                    std::vector<double>& out) const {
  for_each_latency(tag, [&](sim::Time ps) { out.push_back(sim::to_ns(ps)); });
}

std::vector<std::uint32_t> HubSet::tags() const {
  std::vector<std::uint32_t> out;
  for (const MeasurementHub& hub : hubs_) {
    for (const auto& [tag, s] : hub.flows_by_tag()) out.push_back(tag);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace mango::noc
