#include "noc/common/route.hpp"

#include <cstdlib>

#include "sim/assert.hpp"

namespace mango::noc {

namespace {

/// step() without the wrap assertion: returns false instead when the
/// move would leave the non-negative coordinate grid.
bool try_step(NodeId& n, Direction d) {
  switch (d) {
    case Direction::kNorth:
      if (n.y == 0xFFFF) return false;
      ++n.y;
      return true;
    case Direction::kEast:
      if (n.x == 0xFFFF) return false;
      ++n.x;
      return true;
    case Direction::kSouth:
      if (n.y == 0) return false;
      --n.y;
      return true;
    case Direction::kWest:
      if (n.x == 0) return false;
      --n.x;
      return true;
  }
  return false;  // unreachable
}

}  // namespace

std::vector<Direction> xy_route(NodeId src, NodeId dst) {
  std::vector<Direction> moves;
  int dx = static_cast<int>(dst.x) - static_cast<int>(src.x);
  int dy = static_cast<int>(dst.y) - static_cast<int>(src.y);
  moves.reserve(static_cast<std::size_t>(std::abs(dx) + std::abs(dy)));
  for (; dx > 0; --dx) moves.push_back(Direction::kEast);
  for (; dx < 0; ++dx) moves.push_back(Direction::kWest);
  for (; dy > 0; --dy) moves.push_back(Direction::kNorth);
  for (; dy < 0; ++dy) moves.push_back(Direction::kSouth);
  return moves;
}

NodeId step(NodeId n, Direction d) {
  NodeId out = n;
  MANGO_ASSERT(try_step(out, d),
               "step(" + to_string(n) + ", " + to_string(d) +
                   ") wraps the coordinate grid — wrap-around moves must "
                   "go through the topology (Topology::link_peer)");
  return out;
}

unsigned hop_distance(NodeId a, NodeId b) {
  return static_cast<unsigned>(
      std::abs(static_cast<int>(a.x) - static_cast<int>(b.x)) +
      std::abs(static_cast<int>(a.y) - static_cast<int>(b.y)));
}

}  // namespace mango::noc
