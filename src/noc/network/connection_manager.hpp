// GS connection setup (Section 3).
//
// A connection is "a reserved sequence of VCs" forming a logical
// point-to-point circuit between two local ports. The manager
//
//   * computes the XY path,
//   * reserves one VC buffer per router on the path (plus a local GS
//     source interface at the source NA and a local output interface at
//     the destination router) in its reservation ledger — the only
//     record of GS reservations, which the ConnectionBroker's admission
//     reads too, so connections may be opened on either,
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
// one BE-router cycle per word. Remote routers get real BE packets. A
// packet cannot reach its own source's router: a code pointing back the
// way a packet came means local delivery (paper Section 5), and the
// route table rejects src == dst.
#pragma once

#include <array>
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
/// ConnectionManager::plan() and path_status(), so admission and
/// reservation account the same (node, port) pairs.
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

/// Dry-run admission verdict for a src -> dst pair.
enum class PathStatus : std::uint8_t {
  kFree = 0,        ///< open_* would succeed right now
  kBusy = 1,        ///< routable, but a resource on the path is taken
  kUnroutable = 2,  ///< src == dst, out of bounds, or no route
};

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

  /// Dry-run admission query. Pure — reserves nothing, never throws.
  PathStatus path_status(NodeId src, NodeId dst) const;
  bool can_open(NodeId src, NodeId dst) const {
    return path_status(src, dst) == PathStatus::kFree;
  }

  /// Reserved VCs on (node, port); at kLocalPort, the reserved local
  /// output interfaces.
  unsigned reserved_vcs(NodeId node, PortIdx port) const;
  /// VCs per network port; at kLocalPort, the local output interfaces.
  unsigned port_capacity(PortIdx port) const;

  const Connection* get(ConnectionId id) const;
  std::size_t open_connections() const { return records_.size(); }

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

  /// Picks the lowest free resources and computes all table entries;
  /// reserves nothing (commit() does). Throws on resource exhaustion.
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

  /// One node's GS reservations, one bit per index (V <= 8, at most
  /// four local interfaces).
  struct NodeReservations {
    /// Reserved VC buffers per output port; kLocalPort = the local
    /// output interfaces connections terminate on.
    std::array<std::uint8_t, kNumPorts> vcs{};
    std::uint8_t src_ifaces = 0;  ///< GS source interfaces at this NA
  };

  /// Lowest free index of `port` at `node_idx` (-1 when full).
  int free_vc(std::size_t node_idx, PortIdx port) const;
  int free_src_iface(std::size_t node_idx) const;

  Network& net_;
  NodeId host_;
  /// Schedules host-local programming as kernel-mode control posts.
  sim::ControlPlane host_programming_;
  ConnectionId next_id_ = 1;
  std::map<ConnectionId, Record> records_;
  /// The GS reservation ledger, indexed by topology node: the only
  /// record of which VCs and interfaces live connections hold.
  std::vector<NodeReservations> reserved_;
};

}  // namespace mango::noc
