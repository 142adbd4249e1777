#include "noc/network/connection_broker.hpp"

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
    : net_(net), mgr_(mgr), cfg_(cfg) {}

double ConnectionBroker::reserved_share(NodeId node, PortIdx port) const {
  return static_cast<double>(mgr_.reserved_vcs(node, port)) /
         static_cast<double>(mgr_.port_capacity(port));
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

  const PathStatus path = mgr_.path_status(src, dst);
  if (path == PathStatus::kFree) {
    Request& stored = requests_.emplace(id, std::move(rq)).first->second;
    admit(stored);
    return id;
  }
  if (path == PathStatus::kBusy && queue_.size() < cfg_.max_queue) {
    ++stats_.queued;
    requests_.emplace(id, std::move(rq));
    queue_.push_back(id);
    return id;
  }
  // Unroutable pair, or path busy with a full queue: reject. Nothing
  // was reserved — a later open of the same pair must succeed once
  // resources free up (regression-tested) — and the request was never
  // stored: terminal requests keep only their state byte.
  set_state(id, RequestState::kRejected);
  ++stats_.rejected;
  if (rq.on_reject) rq.on_reject(id);
  return id;
}

void ConnectionBroker::admit(Request& rq) {
  // Callers admit only after the manager reported the path free, so the
  // manager's open reserves without throwing.
  set_state(rq.id, RequestState::kProgramming);
  ++stats_.admitted;
  const RequestId id = rq.id;
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
  events::after(net_.simulator(), kBrokerDrainPs, events::kOpBrokerClear, this)
      .d = id;
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
    if (mgr_.can_open(rq.src, rq.dst)) {
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
