// Runtime connection admission control (the MANGO programming model at
// scale).
//
// The paper's headline property is *connection-oriented* service: GS
// circuits are opened and torn down at run time by BE programming
// packets. The ConnectionBroker turns that from test scaffolding into a
// subsystem: it admits against the manager's per-link/per-VC
// bandwidth-and-buffer reservations, accepts simulated-time
// request_open/request_close calls, parks requests in a bounded FIFO (or
// rejects them) when resources along the path are exhausted — instead of
// the hard ModelError the ConnectionManager raises — and drives the
// manager's packet-mode programming path. Setup latency (request ->
// Ready, queueing included), teardown latency (close request ->
// resources released) and blocking/retry counts are recorded for the
// NetworkReport / sweep JSON.
//
// Accounting model: under fair-share arbitration each VC buffer on a
// link owns >= 1/V of the link issue rate, so "one VC per traversed
// link" is simultaneously the buffer *and* the bandwidth ledger —
// reserved_share(node, port) is the fraction of that link's guaranteed
// bandwidth already promised to connections. Admission = every traversed
// (node, port) has a free VC, the source NA has a free GS interface, and
// the destination has a free local output interface. The broker keeps
// no ledger of its own: every admission decision reads the
// ConnectionManager's reservations, so connections opened on the
// manager directly (static GS sets) count against admission too.
//
// Determinism: all decisions derive from simulated time and FIFO order —
// queued requests are retried in arrival order whenever a close frees
// resources — so churn scenarios stay bit-identical across --jobs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "noc/network/connection_manager.hpp"
#include "sim/stats.hpp"

namespace mango::noc {

using RequestId = std::uint32_t;

struct BrokerConfig {
  /// Open requests parked when the path is busy; 0 = reject immediately.
  unsigned max_queue = 16;
  /// Program via BE packets through the live network (the real MANGO
  /// path). false = zero-time direct table writes (unit tests, benches).
  bool packet_mode = true;
  /// Draining dwell between request_close and the clear packets: covers
  /// reverse unlock signals of the last delivered flit still propagating
  /// upstream. The caller is responsible for stopping sources and
  /// letting in-flight *flits* drain before requesting the close.
  sim::Time drain_ps = 2000;
};

/// Lifecycle of one broker request (mirrors ConnState plus the broker's
/// own queue/reject outcomes).
enum class RequestState : std::uint8_t {
  kQueued = 0,
  kProgramming = 1,
  kReady = 2,
  kDraining = 3,
  kClearing = 4,
  kClosed = 5,
  kRejected = 6,
};

const char* to_string(RequestState s);

class ConnectionBroker {
 public:
  using ReadyFn = std::function<void(RequestId, const Connection&)>;
  using RejectFn = std::function<void(RequestId)>;
  using ClosedFn = std::function<void(RequestId)>;

  struct Stats {
    std::uint64_t requested = 0;  ///< request_open calls
    std::uint64_t admitted = 0;   ///< entered Programming (incl. from queue)
    std::uint64_t queued = 0;     ///< parked at least once
    std::uint64_t rejected = 0;   ///< dropped: path busy and queue full
    std::uint64_t ready = 0;      ///< reached Ready
    std::uint64_t closed = 0;     ///< teardown completed
    std::uint64_t retries = 0;    ///< queue re-admissions after a close
    sim::Histogram setup_latency_ns;     ///< request_open -> Ready
    sim::Histogram teardown_latency_ns;  ///< request_close -> released

    double blocking_probability() const {
      return requested == 0
                 ? 0.0
                 : static_cast<double>(rejected) /
                       static_cast<double>(requested);
    }
  };

  ConnectionBroker(Network& net, ConnectionManager& mgr,
                   BrokerConfig cfg = {});

  /// Requests a new GS connection src -> dst. Admitted immediately when
  /// the path has resources (on_ready fires once programming
  /// completes), parked in FIFO order when it does not, rejected (with
  /// accounting untouched) when the queue is full.
  RequestId request_open(NodeId src, NodeId dst, ReadyFn on_ready = {},
                         RejectFn on_reject = {});

  /// Requests teardown of a Ready connection: Draining dwell, then the
  /// clear packets; `on_closed` fires when resources are released and
  /// parked requests have been retried. Checked ModelError when the
  /// request is not Ready (close-before-ready, double close).
  void request_close(RequestId id, ClosedFn on_closed = {});

  /// Lifecycle state of any request this broker ever returned (terminal
  /// requests keep answering after their record is retired).
  RequestState state(RequestId id) const;
  /// The live connection of a Ready/Draining/Clearing request (nullptr
  /// otherwise).
  const Connection* connection(RequestId id) const;

  /// Pure admission query against the manager's reservations.
  bool admissible(NodeId src, NodeId dst) const {
    return mgr_.can_open(src, dst);
  }
  /// Fraction of (node, port)'s guaranteed link bandwidth reserved.
  double reserved_share(NodeId node, PortIdx port) const;

  std::size_t queue_depth() const { return queue_.size(); }
  /// Live connections on the manager, broker-opened or not.
  std::size_t live_connections() const { return mgr_.open_connections(); }
  const Stats& stats() const { return stats_; }

  /// Typed-dispatch entry: request `id`'s drain window elapsed; issue
  /// the close.
  void begin_clear(RequestId id);

 private:
  /// A *live* request (Queued .. Clearing). Terminal requests are
  /// erased — live memory is O(live connections + queue), not lifetime
  /// opens — and only their 1-byte state survives in states_.
  struct Request {
    RequestId id = 0;
    NodeId src;
    NodeId dst;
    sim::Time requested_at = 0;
    sim::Time close_requested_at = 0;
    ConnectionId conn = 0;
    ReadyFn on_ready;
    RejectFn on_reject;
    ClosedFn on_closed;
  };

  void admit(Request& rq);
  void on_conn_ready(RequestId id, const Connection& c);
  void on_conn_closed(RequestId id);
  void retry_queued();
  Request& require(RequestId id);
  void set_state(RequestId id, RequestState s) {
    states_[id - 1] = static_cast<std::uint8_t>(s);
  }

  Network& net_;
  ConnectionManager& mgr_;
  BrokerConfig cfg_;
  RequestId next_id_ = 1;
  std::map<RequestId, Request> requests_;  ///< live requests only
  /// Lifecycle state of every request ever made, indexed by id-1: one
  /// byte per lifetime open — well below the per-sample cost of the
  /// latency histograms — so state() stays answerable after a request
  /// retires without keeping its record.
  std::vector<std::uint8_t> states_;
  std::deque<RequestId> queue_;  ///< parked opens, FIFO arrival order
  Stats stats_;
};

}  // namespace mango::noc
