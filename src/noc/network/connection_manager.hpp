// GS connection setup (Section 3).
//
// A connection is "a reserved sequence of VCs" forming a logical
// point-to-point circuit between two local ports. The manager
//
//   * computes the XY path,
//   * reserves one VC buffer per router on the path (plus a local GS
//     source interface at the source NA and a local output interface at
//     the destination router),
//   * programs, per router, the forward steering entry and the reverse
//     unlock-map entry — either directly (zero-time; unit tests and
//     benches) or realistically with BE programming packets sent from a
//     host NA through the network,
//   * tracks setup completion through the programming-interface observers.
//
// Every connection, direct or packet-programmed, moves through ONE
// explicit lifecycle state machine:
//
//   Requested -> Programming -> Ready -> [Draining] -> Clearing -> Closed
//
// Direct mode traverses Requested/Programming/Ready inside a single call
// (zero simulated time); packet mode parks in Programming/Clearing while
// BE programming packets are in flight. Closing a connection that is not
// Ready (or Draining), and closing one that is already Clearing, are
// checked ModelErrors — there is no unguarded double-close path — and
// release_resources is idempotent (a Closed connection releases nothing
// twice).
//
// The host programs its *own* router through the local programming port
// (the programming interface is an extension on the local port the host
// core sits on — no network crossing), modeled as one NA wire hop plus
// one BE-router cycle per word. Remote routers get real BE packets.
// Earlier versions bounced an out-and-back BE self-route off a neighbor
// instead; that workaround cannot scale (a 16-node ring's only
// u-turn-free cycle is 16 hops, past the 15-code header budget).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "noc/common/ids.hpp"
#include "noc/network/network.hpp"
#include "sim/parallel.hpp"

namespace mango::noc {

using ConnectionId = std::uint32_t;

/// One traversed link of a src -> dst route: the sending node (by
/// topology index), its outgoing port, and the peer side — whose
/// arrival port on irregular graphs is read off the link wiring, not
/// simply opposite(move).
struct PathLink {
  std::size_t node_idx = 0;
  PortIdx out_port = 0;
  std::size_t peer_idx = 0;
  PortIdx arrival_port = 0;
};

/// Walks the materialized route src -> dst (src != dst) over the
/// topology's port adjacency — the single traversal behind
/// ConnectionManager::plan()/can_open() and the broker's demand
/// planning, so their per-(node, port) accounting cannot drift.
/// Throws ModelError when the pair is unroutable.
std::vector<PathLink> route_links(const Network& net, NodeId src, NodeId dst);

/// Lifecycle of one connection (shared by direct and packet mode).
enum class ConnState : std::uint8_t {
  kRequested = 0,    ///< path planned, resources reserved
  kProgramming = 1,  ///< programming packets in flight
  kReady = 2,        ///< every router programmed; usable
  kDraining = 3,     ///< teardown requested, in-flight flits draining
  kClearing = 4,     ///< clear packets in flight
  kClosed = 5,       ///< resources released (terminal)
};

const char* to_string(ConnState s);

struct Connection {
  ConnectionId id = 0;
  NodeId src;
  NodeId dst;
  LocalIfaceIdx src_iface = 0;  ///< GS source interface at the source NA
  /// Reserved VC buffers, one per router on the path; the last one is the
  /// destination's local output interface.
  std::vector<std::pair<NodeId, VcBufferId>> hops;
  ConnState state = ConnState::kRequested;
  sim::Time requested_at = 0;   ///< when the open was committed
  sim::Time ready_at = 0;       ///< when setup completed

  /// Programmed and usable (flits may still be in flight while Draining).
  bool ready() const {
    return state == ConnState::kReady || state == ConnState::kDraining;
  }
  LocalIfaceIdx dst_iface() const { return hops.back().second.vc; }
  unsigned link_hops() const {
    return static_cast<unsigned>(hops.size()) - 1;
  }
};

class ConnectionManager {
 public:
  using ReadyCallback = std::function<void(const Connection&)>;
  using ClosedCallback = std::function<void()>;

  explicit ConnectionManager(Network& net, NodeId host = NodeId{0, 0});

  /// Sets up a connection by writing the tables directly (zero simulated
  /// time). ModelError if no VC resources are free along the path.
  const Connection& open_direct(NodeId src, NodeId dst);

  /// Sets up a connection with BE programming packets from the host NA.
  /// `on_ready` fires when every router on the path has been programmed.
  const Connection& open_via_packets(NodeId src, NodeId dst,
                                     ReadyCallback on_ready = {});

  /// Tears down a connection (zero simulated time). The connection must
  /// be Ready or Draining with no flits in flight; anything else is a
  /// checked ModelError (close-before-ready, double close).
  void close_direct(ConnectionId id);

  /// Tears down a connection with BE clear-packets from the host NA.
  /// Same state preconditions as close_direct; resources are released
  /// (and `on_closed` fires) once every router has processed its packet.
  void close_via_packets(ConnectionId id, ClosedCallback on_closed = {});

  /// Ready -> Draining: the caller (typically the ConnectionBroker) has
  /// stopped the sources and is waiting for in-flight flits to drain
  /// before issuing the close. Checked error in any other state.
  void mark_draining(ConnectionId id);

  /// Dry-run admission query: would open_* succeed right now? Pure —
  /// reserves nothing, never throws (an unroutable pair is just false).
  bool can_open(NodeId src, NodeId dst) const;

  const Connection* get(ConnectionId id) const;
  std::size_t open_connections() const { return records_.size(); }

  /// Visits every live connection in ascending id order (deterministic);
  /// used by the broker to seed its accounting from pre-opened sets.
  void for_each_connection(
      const std::function<void(const Connection&)>& fn) const;

 protected:
  /// Returns every reserved resource of `conn` to the free pool and
  /// marks it Closed. Idempotent: a second call on the same connection
  /// is a no-op (protected so tests can assert exactly that).
  void release_resources(Connection& conn);

 private:
  struct PlannedHop {
    NodeId node;
    VcBufferId buffer;
    std::optional<SteerBits> forward;  ///< none on the last hop
    ReverseEntry reverse;
  };

  /// One live connection plus its in-flight operation bookkeeping — the
  /// single record the state machine acts on (no side callback maps).
  struct Record {
    Connection conn;
    unsigned prog_remaining = 0;  ///< packets outstanding (Programming/Clearing)
    ReadyCallback on_ready;
    ClosedCallback on_closed;
  };

  /// Reserves resources and computes all table entries. Throws on
  /// resource exhaustion (rolls back reservations first).
  std::vector<PlannedHop> plan(NodeId src, NodeId dst,
                               LocalIfaceIdx& src_iface_out);
  Record& commit(NodeId src, NodeId dst, LocalIfaceIdx src_iface,
                 std::vector<PlannedHop> hops);
  void on_programmed(NodeId node, std::uint32_t tag, unsigned words);
  /// Shared close precondition: the record exists and is Ready/Draining.
  Record& require_closable(ConnectionId id);
  /// Delivers `words` to the host's own programming interface through
  /// the local port (see the header comment).
  void program_host_locally(std::vector<std::uint32_t> words,
                            std::uint32_t tag);

  VcIdx allocate_vc(NodeId node, PortIdx port);
  LocalIfaceIdx allocate_local_source(NodeId node);
  LocalIfaceIdx allocate_local_sink(NodeId node);

  struct BufKey {
    std::size_t node_idx;
    PortIdx port;
    VcIdx vc;
    friend bool operator<(const BufKey& a, const BufKey& b) {
      if (a.node_idx != b.node_idx) return a.node_idx < b.node_idx;
      if (a.port != b.port) return a.port < b.port;
      return a.vc < b.vc;
    }
  };

  unsigned used_vcs(std::size_t node_idx, PortIdx port) const;

  Network& net_;
  NodeId host_;
  /// Schedules host-local programming as kernel-mode control posts.
  sim::ControlPlane host_programming_;
  ConnectionId next_id_ = 1;
  std::map<ConnectionId, Record> records_;
  std::map<BufKey, ConnectionId> buffer_owner_;
  /// Source-interface occupancy per node.
  std::map<std::size_t, std::vector<bool>> src_ifaces_used_;
};

}  // namespace mango::noc
