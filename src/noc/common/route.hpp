// Mesh-geometry route references and the BE VC-class (dateline) rule.
//
// The BE router performs pure source routing; deadlock freedom comes from
// the *source* computing cycle-free routes (Section 5: "to avoid
// deadlocks XY-routing is employed" — on the mesh). GS connections reuse
// the same path computation when the connection manager reserves VCs hop
// by hop.
//
// Production routes and hop counts are walks of the materialized
// RouteTable (noc/network/routing.hpp), and route checks walk the
// topology's port table (Topology::route_reaches). The three free
// functions below are MESH GEOMETRY ONLY — Manhattan coordinates, no
// wrap links, no irregular adjacency — and stay as the references the
// route-table tests compare against. Feeding step() a wrap move is a
// checked error, not a silently wrapped 16-bit coordinate.
#pragma once

#include <vector>

#include "noc/common/ids.hpp"

namespace mango::noc {

/// Mesh coordinate convention: x grows East, y grows North.
/// Returns the XY route (all X moves, then all Y moves) from src to dst.
/// src == dst yields an empty route.
std::vector<Direction> xy_route(NodeId src, NodeId dst);

/// Applies one move to a mesh position. Checked: stepping South of y=0 or
/// West of x=0 (a wrap) raises ModelError — wrap-capable fabrics walk
/// through Topology::link_peer instead.
NodeId step(NodeId n, Direction d);

/// Number of mesh hops between two nodes (Manhattan distance). Mesh
/// only: wrap-aware hop counts come from RouteTable::hops.
unsigned hop_distance(NodeId a, NodeId b);

// ---------------------------------------------------------------------------
// BE VC classes (dateline scheme)
// ---------------------------------------------------------------------------

/// Dimension of a direction: East/West = 0, North/South = 1. Wrap
/// topologies run one dateline scheme per dimension.
constexpr unsigned dimension_of(Direction d) {
  return (d == Direction::kEast || d == Direction::kWest) ? 0u : 1u;
}

/// One step of the dateline VC-class rule, shared by the BE routers
/// (which rewrite the flit's bevc bit when forwarding) and the
/// channel-dependency-graph validator (which models the same rule):
/// a packet starts each dimension on VC class 0 and is promoted to
/// class 1 when forwarded across that dimension's dateline link; the
/// class is inherited while the packet continues straight within one
/// dimension. `in` is the port the flit arrived on (kLocalPort for
/// injection), `out` the network direction it leaves by.
constexpr unsigned be_vc_class_step(PortIdx in, Direction out, unsigned cur,
                                    bool out_is_dateline) {
  unsigned v = 0;
  if (is_network_port(in) &&
      dimension_of(direction_of(in)) == dimension_of(out)) {
    v = cur;  // continuing within the dimension: keep the class
  }
  if (out_is_dateline) v = 1;
  return v;
}

}  // namespace mango::noc
