#include "noc/network/connection_broker.hpp"

#include <algorithm>

#include "noc/common/events.hpp"
#include "sim/assert.hpp"

namespace mango::noc {

const char* to_string(RequestState s) {
  switch (s) {
    case RequestState::kQueued: return "queued";
    case RequestState::kProgramming: return "programming";
    case RequestState::kReady: return "ready";
    case RequestState::kDraining: return "draining";
    case RequestState::kClearing: return "clearing";
    case RequestState::kClosed: return "closed";
    case RequestState::kRejected: return "rejected";
  }
  return "?";
}

ConnectionBroker::ConnectionBroker(Network& net, ConnectionManager& mgr,
                                   BrokerConfig cfg)
    : net_(net),
      mgr_(mgr),
      cfg_(cfg),
      link_reserved_(net.node_count()),
      src_reserved_(net.node_count(), 0) {
  for (auto& ports : link_reserved_) ports.fill(0);
  // Seed the ledger from connections opened before the broker existed
  // (static GS sets): the broker must see their VCs as spoken for.
  mgr_.for_each_connection([this](const Connection& c) {
    Demand d;
    d.src_idx = net_.topology().index(c.src);
    d.dst_idx = net_.topology().index(c.dst);
    for (std::size_t k = 0; k + 1 < c.hops.size(); ++k) {
      d.link_vcs.emplace_back(net_.topology().index(c.hops[k].first),
                              c.hops[k].second.port);
    }
    reserve(d);
    ++live_;
  });
}

bool ConnectionBroker::plan_demand(NodeId src, NodeId dst, Demand* out) const {
  if (src == dst || !net_.topology().contains(src) ||
      !net_.topology().contains(dst)) {
    return false;
  }
  std::vector<PathLink> links;
  try {
    links = route_links(net_, src, dst);  // the walk plan()/can_open() use
  } catch (const ModelError&) {
    return false;  // unroutable pair
  }
  Demand d;
  d.src_idx = net_.topology().index(src);
  d.dst_idx = net_.topology().index(dst);
  d.link_vcs.reserve(links.size());
  for (const PathLink& link : links) {
    d.link_vcs.emplace_back(link.node_idx, link.out_port);
  }
  *out = std::move(d);
  return true;
}

bool ConnectionBroker::demand_fits(const Demand& d) const {
  const RouterConfig& rc = net_.config().router;
  if (src_reserved_[d.src_idx] >= rc.local_gs_ifaces) return false;
  if (link_reserved_[d.dst_idx][kLocalPort] >= rc.local_gs_ifaces) {
    return false;
  }
  for (const auto& [node_idx, port] : d.link_vcs) {
    if (link_reserved_[node_idx][port] >= rc.vcs_per_port) return false;
  }
  return true;
}

void ConnectionBroker::reserve(const Demand& d) {
  ++src_reserved_[d.src_idx];
  ++link_reserved_[d.dst_idx][kLocalPort];
  for (const auto& [node_idx, port] : d.link_vcs) {
    ++link_reserved_[node_idx][port];
  }
}

void ConnectionBroker::release(const Demand& d) {
  MANGO_ASSERT(src_reserved_[d.src_idx] > 0, "broker ledger underflow (src)");
  MANGO_ASSERT(link_reserved_[d.dst_idx][kLocalPort] > 0,
               "broker ledger underflow (dst)");
  --src_reserved_[d.src_idx];
  --link_reserved_[d.dst_idx][kLocalPort];
  for (const auto& [node_idx, port] : d.link_vcs) {
    MANGO_ASSERT(link_reserved_[node_idx][port] > 0,
                 "broker ledger underflow (link)");
    --link_reserved_[node_idx][port];
  }
}

bool ConnectionBroker::admissible(NodeId src, NodeId dst) const {
  Demand d;
  return plan_demand(src, dst, &d) && demand_fits(d);
}

double ConnectionBroker::reserved_share(NodeId node, PortIdx port) const {
  const std::size_t idx = net_.topology().index(node);
  const RouterConfig& rc = net_.config().router;
  const unsigned cap =
      port == kLocalPort ? rc.local_gs_ifaces : rc.vcs_per_port;
  return cap == 0 ? 0.0
                  : static_cast<double>(link_reserved_[idx][port]) /
                        static_cast<double>(cap);
}

RequestId ConnectionBroker::request_open(NodeId src, NodeId dst,
                                         ReadyFn on_ready, RejectFn on_reject) {
  const RequestId id = next_id_++;
  ++stats_.requested;
  states_.push_back(static_cast<std::uint8_t>(RequestState::kQueued));
  Request rq;
  rq.id = id;
  rq.src = src;
  rq.dst = dst;
  rq.requested_at = net_.simulator().now();
  rq.on_ready = std::move(on_ready);
  rq.on_reject = std::move(on_reject);

  Demand d;
  const bool routable = plan_demand(src, dst, &d);
  if (routable && demand_fits(d)) {
    rq.demand = std::move(d);
    Request& stored = requests_.emplace(id, std::move(rq)).first->second;
    admit(stored);
    return id;
  }
  if (routable && queue_.size() < cfg_.max_queue) {
    rq.demand = std::move(d);
    ++stats_.queued;
    requests_.emplace(id, std::move(rq));
    queue_.push_back(id);
    return id;
  }
  // Unroutable pair, or path busy with a full queue: reject. The ledger
  // was never touched — a later open of the same pair must succeed once
  // resources free up (regression-tested) — and the request was never
  // stored: terminal requests keep only their state byte.
  set_state(id, RequestState::kRejected);
  ++stats_.rejected;
  if (rq.on_reject) rq.on_reject(id);
  return id;
}

void ConnectionBroker::admit(Request& rq) {
  // The broker's ledger and the manager's ground-truth ledger must
  // agree at every admission; divergence means connections were opened
  // or closed behind the broker's back. O(path) per open — a loud
  // error instead of silent drift between the two admission walks.
  MANGO_ASSERT(mgr_.can_open(rq.src, rq.dst),
               "broker admitted " + to_string(rq.src) + " -> " +
                   to_string(rq.dst) +
                   " but the connection manager's ledger disagrees (was a "
                   "connection opened/closed without going through the "
                   "broker?)");
  reserve(rq.demand);
  set_state(rq.id, RequestState::kProgramming);
  ++stats_.admitted;
  ++live_;
  const RequestId id = rq.id;
  // A manager throw here is a ledger-divergence bug (someone opened a
  // connection behind the broker's back), not a rejection — propagate.
  if (cfg_.packet_mode) {
    const Connection& c = mgr_.open_via_packets(
        rq.src, rq.dst,
        [this, id](const Connection& conn) { on_conn_ready(id, conn); });
    // rq may be a dangling reference if the ready callback re-entered
    // the broker; re-resolve by id.
    require(id).conn = c.id;
  } else {
    const Connection& c = mgr_.open_direct(rq.src, rq.dst);
    require(id).conn = c.id;
    on_conn_ready(id, c);
  }
}

void ConnectionBroker::on_conn_ready(RequestId id, const Connection& c) {
  Request& rq = require(id);
  rq.conn = c.id;
  set_state(id, RequestState::kReady);
  ++stats_.ready;
  stats_.setup_latency_ns.add(
      sim::to_ns(net_.simulator().now() - rq.requested_at));
  if (rq.on_ready) {
    ReadyFn cb = std::move(rq.on_ready);
    rq.on_ready = nullptr;
    cb(id, c);
  }
}

void ConnectionBroker::request_close(RequestId id, ClosedFn on_closed) {
  if (id == 0 || id >= next_id_) {
    model_fail("request_close on unknown request " + std::to_string(id));
  }
  const RequestState st = state(id);
  if (st != RequestState::kReady) {
    model_fail("request_close on request " + std::to_string(id) +
               " in state " + to_string(st) +
               (st == RequestState::kDraining ||
                        st == RequestState::kClearing ||
                        st == RequestState::kClosed
                    ? " (double close)"
                    : " (close before ready)"));
  }
  Request& rq = require(id);
  set_state(id, RequestState::kDraining);
  rq.close_requested_at = net_.simulator().now();
  rq.on_closed = std::move(on_closed);
  mgr_.mark_draining(rq.conn);
  sim::TypedEvent ev = events::make(events::kOpBrokerClear, this);
  ev.d = id;
  net_.simulator().after_typed(cfg_.drain_ps, ev);
}

void ConnectionBroker::begin_clear(RequestId id) {
  Request& rq = require(id);
  MANGO_ASSERT(state(id) == RequestState::kDraining,
               "begin_clear outside Draining");
  set_state(id, RequestState::kClearing);
  if (cfg_.packet_mode) {
    mgr_.close_via_packets(rq.conn, [this, id] { on_conn_closed(id); });
  } else {
    mgr_.close_direct(rq.conn);
    on_conn_closed(id);
  }
}

void ConnectionBroker::on_conn_closed(RequestId id) {
  auto it = requests_.find(id);
  MANGO_ASSERT(it != requests_.end(), "unknown broker request");
  release(it->second.demand);
  MANGO_ASSERT(live_ > 0, "broker live-connection underflow");
  --live_;
  ++stats_.closed;
  stats_.teardown_latency_ns.add(
      sim::to_ns(net_.simulator().now() - it->second.close_requested_at));
  ClosedFn cb = std::move(it->second.on_closed);
  // Retire the record: only the state byte outlives the request.
  requests_.erase(it);
  set_state(id, RequestState::kClosed);
  if (cb) cb(id);
  retry_queued();
}

void ConnectionBroker::retry_queued() {
  // First fit in FIFO arrival order: deterministic, and a head request
  // whose long path stays busy does not starve later short ones. Indexed
  // scan, not iterators: an admit callback may re-enter the broker and
  // push new requests onto the queue (they are scanned too).
  std::size_t i = 0;
  while (i < queue_.size()) {
    Request& rq = require(queue_[i]);
    MANGO_ASSERT(state(rq.id) == RequestState::kQueued,
                 "non-queued request parked in the broker queue");
    if (demand_fits(rq.demand)) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      ++stats_.retries;
      admit(rq);
    } else {
      ++i;
    }
  }
}

ConnectionBroker::Request& ConnectionBroker::require(RequestId id) {
  auto it = requests_.find(id);
  MANGO_ASSERT(it != requests_.end(), "unknown broker request");
  return it->second;
}

RequestState ConnectionBroker::state(RequestId id) const {
  MANGO_ASSERT(id != 0 && id < next_id_, "unknown broker request");
  return static_cast<RequestState>(states_[id - 1]);
}

const Connection* ConnectionBroker::connection(RequestId id) const {
  auto it = requests_.find(id);
  if (it == requests_.end()) return nullptr;  // terminal or unknown
  const RequestState st = state(id);
  if (st != RequestState::kReady && st != RequestState::kDraining &&
      st != RequestState::kClearing) {
    return nullptr;
  }
  return mgr_.get(it->second.conn);
}

}  // namespace mango::noc
