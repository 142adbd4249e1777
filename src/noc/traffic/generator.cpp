#include "noc/traffic/generator.hpp"

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

GsStreamSource::GsStreamSource(NetworkAdapter& na, LocalIfaceIdx iface,
                               std::uint32_t tag, Options opt)
    : sim_(na.router().ctx().sim()),
      na_(na),
      iface_(iface),
      tag_(tag),
      opt_(opt),
      generated_stat_(
          &na.router().ctx().stats().counter("traffic.gs_flits_generated")) {
  events::install(sim_);
}

void GsStreamSource::start(sim::Time at) {
  MANGO_ASSERT(!started_, "GS source started twice");
  started_ = true;
  sim_.at_typed(std::max(at, sim_.now()),
                events::make(events::kOpGsSourceStart, this));
}

void GsStreamSource::begin() {
  started_at_ = sim_.now();
  if (opt_.period_ps == 0) {
    // Saturating: pull-model supplier, no queue growth.
    na_.set_gs_supplier(iface_, [this] { return supply(); });
  } else {
    tick();
  }
}

bool GsStreamSource::in_on_phase() const {
  if (opt_.burst_on_ps == 0) return true;
  const sim::Time cycle = opt_.burst_on_ps + opt_.burst_off_ps;
  return (sim_.now() - started_at_) % cycle < opt_.burst_on_ps;
}

Flit GsStreamSource::make_flit() {
  Flit f;
  f.data = static_cast<std::uint32_t>(seq_ & 0xFFFFFFFFull);
  f.tag = tag_;
  f.seq = seq_++;
  f.injected_at = sim_.now();
  ++generated_;
  ++*generated_stat_;
  return f;
}

std::optional<Flit> GsStreamSource::supply() {
  if (stopped_ || !in_on_phase()) return std::nullopt;
  if (opt_.max_flits != 0 && generated_ >= opt_.max_flits) return std::nullopt;
  return make_flit();
}

void GsStreamSource::tick() {
  if (stopped_) return;
  if (opt_.max_flits != 0 && generated_ >= opt_.max_flits) return;
  if (in_on_phase()) {
    na_.gs_send(iface_, make_flit());
  }
  sim::TypedEvent ev{};
  ev.op = events::kOpGsSourceTick;
  ev.p0 = this;
  sim_.after_typed(opt_.period_ps, ev);
}

BeTraceSource::BeTraceSource(Network& net, NodeId src, std::uint32_t tag,
                             std::vector<TraceEntry> trace)
    : net_(net),
      src_(src),
      tag_(tag),
      trace_(std::move(trace)),
      sim_(net.na(src).router().ctx().sim()),
      flit_pool_(net.na(src).router().ctx().pools().vectors<Flit>()) {
  events::install(sim_);
  MANGO_ASSERT(net_.topology().contains(src_), "trace source out of bounds");
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    MANGO_ASSERT(trace_[i].dst != src_, "trace destination equals source");
    MANGO_ASSERT(net_.topology().contains(trace_[i].dst),
                 "trace destination out of bounds");
    MANGO_ASSERT(i == 0 || trace_[i - 1].at <= trace_[i].at,
                 "trace entries must be time-sorted");
  }
}

void BeTraceSource::start() {
  if (!trace_.empty()) {
    sim_.at_typed(std::max(trace_.front().at, sim_.now()),
                  events::make(events::kOpBeTraceInject, this));
  }
}

void BeTraceSource::inject(std::size_t idx) {
  const TraceEntry& e = trace_[idx];
  payload_buf_.assign(std::max(1u, e.payload_words), 0);
  for (std::size_t w = 0; w < payload_buf_.size(); ++w) {
    payload_buf_[w] = static_cast<std::uint32_t>(idx + w);
  }
  BePacket pkt =
      make_be_packet(flit_pool_.acquire(), net_.be_header(src_, e.dst),
                     payload_buf_.data(), payload_buf_.size(), tag_);
  const sim::Time now = sim_.now();
  for (Flit& f : pkt.flits) f.injected_at = now;
  net_.na(src_).send_be_packet(std::move(pkt), e.vc);
  ++injected_;
  if (idx + 1 < trace_.size()) {
    sim::TypedEvent ev = events::make(events::kOpBeTraceInject, this);
    ev.d = static_cast<std::uint32_t>(idx + 1);
    sim_.at_typed(std::max(trace_[idx + 1].at, now), ev);
  }
}

BeTrafficSource::BeTrafficSource(Network& net, NodeId src, std::uint32_t tag,
                                 Options opt)
    : net_(net),
      src_(src),
      tag_(tag),
      opt_(opt),
      rng_(opt.seed),
      sim_(net.na(src).router().ctx().sim()),
      generated_stat_(&net.na(src).router().ctx().stats().counter(
          "traffic.be_packets_generated")),
      flit_pool_(net.na(src).router().ctx().pools().vectors<Flit>()) {
  events::install(sim_);
  MANGO_ASSERT(net_.topology().contains(src_), "BE source out of bounds");
  if (opt_.fixed_dst.has_value()) {
    MANGO_ASSERT(*opt_.fixed_dst != src_, "BE destination equals source");
  }
}

void BeTrafficSource::start(sim::Time at) {
  sim_.at_typed(std::max(at, sim_.now()),
                events::make(events::kOpBeSourceStart, this));
}

void BeTrafficSource::begin() {
  if (modulated()) schedule_phase_toggle();
  schedule_next();
}

void BeTrafficSource::schedule_phase_toggle() {
  const double mean = static_cast<double>(
      on_phase_ ? opt_.burst_on_mean_ps : opt_.burst_off_mean_ps);
  const auto len =
      std::max<sim::Time>(1, static_cast<sim::Time>(rng_.next_exponential(mean)));
  phase_end_ = sim_.now() + len;
  sim_.after_typed(len, events::make(events::kOpBePhaseToggle, this));
}

void BeTrafficSource::toggle_phase() {
  if (stopped_) return;
  on_phase_ = !on_phase_;
  schedule_phase_toggle();
}

NodeId BeTrafficSource::pick_dst() {
  if (opt_.dst_picker) {
    const NodeId d = opt_.dst_picker(rng_);
    MANGO_ASSERT(net_.topology().contains(d) && d != src_,
                 "dst_picker returned an invalid destination");
    return d;
  }
  if (opt_.fixed_dst.has_value()) return *opt_.fixed_dst;
  const std::size_t count = net_.node_count();
  for (;;) {
    const NodeId cand = net_.node_at(rng_.next_below(count));
    if (cand != src_) return cand;
  }
}

void BeTrafficSource::inject() {
  if (stopped_) return;
  if (opt_.max_packets != 0 && generated_ >= opt_.max_packets) return;
  if (modulated() && !on_phase_) {
    // Defer to the ON edge. The toggle event at phase_end_ was scheduled
    // before this one, so it dispatches first and flips the phase.
    sim::TypedEvent ev{};
    ev.op = events::kOpBeSourceInject;
    ev.p0 = this;
    sim_.at_typed(phase_end_, ev);
    return;
  }
  NetworkAdapter& na = net_.na(src_);
  if (na.be_queue_flits() > opt_.na_queue_limit) {
    // Backpressured: count and retry shortly without generating.
    ++held_;
    sim::TypedEvent ev{};
    ev.op = events::kOpBeSourceInject;
    ev.p0 = this;
    sim_.after_typed(1000, ev);
    return;
  }
  const NodeId dst = pick_dst();
  payload_buf_.resize(opt_.payload_words);
  for (auto& w : payload_buf_) {
    w = static_cast<std::uint32_t>(rng_.next_u64());
  }
  BePacket pkt =
      make_be_packet(flit_pool_.acquire(), net_.be_header(src_, dst),
                     payload_buf_.data(), payload_buf_.size(), tag_);
  const sim::Time now = sim_.now();
  for (Flit& f : pkt.flits) f.injected_at = now;
  na.send_be_packet(std::move(pkt));
  ++generated_;
  ++*generated_stat_;
  schedule_next();
}

void BeTrafficSource::schedule_next() {
  if (stopped_) return;
  sim::Time gap = 0;
  if (opt_.mean_interarrival_ps > 0) {
    gap = static_cast<sim::Time>(rng_.next_exponential(
        static_cast<double>(opt_.mean_interarrival_ps)));
  }
  sim::TypedEvent ev{};
  ev.op = events::kOpBeSourceInject;
  ev.p0 = this;
  sim_.after_typed(gap, ev);
}

}  // namespace mango::noc
