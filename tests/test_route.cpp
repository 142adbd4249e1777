// Property tests for XY routing.
#include <gtest/gtest.h>

#include "noc/common/route.hpp"
#include "noc/network/topology.hpp"

namespace mango::noc {
namespace {

TEST(XyRoute, EmptyForSameNode) {
  EXPECT_TRUE(xy_route({3, 3}, {3, 3}).empty());
}

TEST(XyRoute, PureXAndPureY) {
  auto east = xy_route({0, 0}, {3, 0});
  EXPECT_EQ(east, (std::vector<Direction>{Direction::kEast, Direction::kEast,
                                          Direction::kEast}));
  auto south = xy_route({2, 3}, {2, 1});
  EXPECT_EQ(south,
            (std::vector<Direction>{Direction::kSouth, Direction::kSouth}));
}

TEST(XyRoute, XBeforeY) {
  auto r = xy_route({0, 0}, {2, 2});
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[0], Direction::kEast);
  EXPECT_EQ(r[1], Direction::kEast);
  EXPECT_EQ(r[2], Direction::kNorth);
  EXPECT_EQ(r[3], Direction::kNorth);
}

TEST(Step, MovesOneHop) {
  EXPECT_EQ(step({1, 1}, Direction::kNorth), (NodeId{1, 2}));
  EXPECT_EQ(step({1, 1}, Direction::kEast), (NodeId{2, 1}));
  EXPECT_EQ(step({1, 1}, Direction::kSouth), (NodeId{1, 0}));
  EXPECT_EQ(step({1, 1}, Direction::kWest), (NodeId{0, 1}));
}

TEST(HopDistance, Manhattan) {
  EXPECT_EQ(hop_distance({0, 0}, {3, 4}), 7u);
  EXPECT_EQ(hop_distance({2, 2}, {2, 2}), 0u);
  EXPECT_EQ(hop_distance({5, 1}, {1, 2}), 5u);
}

/// Property: for every src/dst pair in a mesh, the XY route reaches the
/// destination, has Manhattan length, and never reverses direction
/// (each axis is traversed monotonically -> deadlock-free with XY order).
class XyRouteAllPairs
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(XyRouteAllPairs, ReachesWithManhattanLengthAndXyOrder) {
  const auto [w, h] = GetParam();
  const Topology mesh(TopologySpec::mesh(static_cast<std::uint16_t>(w),
                                         static_cast<std::uint16_t>(h)));
  for (int sx = 0; sx < w; ++sx) {
    for (int sy = 0; sy < h; ++sy) {
      for (int dx = 0; dx < w; ++dx) {
        for (int dy = 0; dy < h; ++dy) {
          const NodeId src{static_cast<std::uint16_t>(sx),
                           static_cast<std::uint16_t>(sy)};
          const NodeId dst{static_cast<std::uint16_t>(dx),
                           static_cast<std::uint16_t>(dy)};
          const auto moves = xy_route(src, dst);
          ASSERT_TRUE(mesh.route_reaches(src, dst, moves));
          ASSERT_EQ(moves.size(), hop_distance(src, dst));
          // XY order: once a Y move appears, no X move may follow.
          bool seen_y = false;
          for (Direction d : moves) {
            const bool is_y =
                d == Direction::kNorth || d == Direction::kSouth;
            if (seen_y) {
              ASSERT_TRUE(is_y);
            }
            if (is_y) seen_y = true;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, XyRouteAllPairs,
                         ::testing::Values(std::make_pair(2, 2),
                                           std::make_pair(4, 4),
                                           std::make_pair(5, 3),
                                           std::make_pair(1, 6),
                                           std::make_pair(8, 8)));

TEST(RouteReaches, DetectsWrongRoutes) {
  const Topology mesh(TopologySpec::mesh(2, 2));
  EXPECT_FALSE(mesh.route_reaches({0, 0}, {1, 0}, {Direction::kNorth}));
  EXPECT_TRUE(mesh.route_reaches({0, 0}, {1, 0}, {Direction::kEast}));
}

}  // namespace
}  // namespace mango::noc
