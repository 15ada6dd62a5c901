#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "topo/cmesh.hpp"
#include "topo/mesh.hpp"

namespace mr {
namespace {

TEST(Mesh, IdCoordRoundTrip) {
  const Mesh m(7, 5);
  for (NodeId id = 0; id < m.num_nodes(); ++id)
    EXPECT_EQ(m.id_of(m.coord_of(id)), id);
}

/// True when coord_of(id) is {id % width, id / width} and id_of maps it
/// back to id.
bool plain_coord(const Topology& t, NodeId id) {
  const Coord c = t.coord_of(id);
  return c.col == id % t.width() && c.row == id / t.width() &&
         t.id_of(c) == id;
}

TEST(TopologyKernel, CoordOfMatchesPlainDivision) {
  // coord_of divides by the width with a multiply and a shift; every id of
  // every width up to 300 must agree with `/` and `%`.
  for (std::int32_t w = 1; w <= 300; ++w)
    for (const std::int32_t h : {1, 7}) {
      const Mesh m(w, h);
      for (NodeId id = 0; id < m.num_nodes(); ++id)
        ASSERT_TRUE(plain_coord(m, id)) << w << "x" << h << " id " << id;
    }
}

TEST(TopologyKernel, CoordOfMatchesPlainDivisionNearTwoToThe31) {
  // Shapes whose node count is close to 2^31, where the multiply-shift has
  // the least slack: the first and last ids, both sides of sampled row
  // boundaries, and pseudo-random ids.
  constexpr std::int32_t kMax = 2147483647;
  std::vector<std::unique_ptr<Topology>> shapes;
  for (const auto& [w, h] : std::vector<std::pair<std::int32_t, std::int32_t>>{
           {46340, 46340}, {46341, 46340}, {65535, 32768}, {32768, 65535},
           {kMax, 1}, {1, kMax}}) {
    shapes.push_back(std::make_unique<Mesh>(w, h));
    shapes.push_back(std::make_unique<Mesh>(w, h, /*torus=*/true));
    shapes.push_back(std::make_unique<CMesh>(w, h, 4));
  }
  for (const auto& t : shapes) {
    const std::int64_t n = t->num_nodes();
    const std::int64_t w = t->width();
    std::vector<std::int64_t> ids;
    for (std::int64_t i = 0; i < 4096; ++i) {
      ids.push_back(i);
      ids.push_back(n - 1 - i);
    }
    for (std::int64_t row = 1; row < t->height(); row += 997)
      for (const std::int64_t off : {-1, 0, 1})
        ids.push_back(row * w + off);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 100000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      ids.push_back(static_cast<std::int64_t>((x >> 33) %
                                              static_cast<std::uint64_t>(n)));
    }
    for (const std::int64_t id : ids) {
      if (id < 0 || id >= n) continue;
      ASSERT_TRUE(plain_coord(*t, static_cast<NodeId>(id)))
          << t->name() << " " << t->width() << "x" << t->height() << " id "
          << id;
    }
  }
}

TEST(Mesh, NeighborsOnEdges) {
  const Mesh m = Mesh::square(4);
  const NodeId sw = m.id_of(0, 0);
  EXPECT_EQ(m.neighbor(sw, Dir::West), kInvalidNode);
  EXPECT_EQ(m.neighbor(sw, Dir::South), kInvalidNode);
  EXPECT_EQ(m.neighbor(sw, Dir::East), m.id_of(1, 0));
  EXPECT_EQ(m.neighbor(sw, Dir::North), m.id_of(0, 1));
  const NodeId ne = m.id_of(3, 3);
  EXPECT_EQ(m.neighbor(ne, Dir::East), kInvalidNode);
  EXPECT_EQ(m.neighbor(ne, Dir::North), kInvalidNode);
}

TEST(Mesh, TorusWraps) {
  const Mesh t = Mesh::square(4, /*torus=*/true);
  EXPECT_EQ(t.neighbor(t.id_of(0, 0), Dir::West), t.id_of(3, 0));
  EXPECT_EQ(t.neighbor(t.id_of(0, 0), Dir::South), t.id_of(0, 3));
  EXPECT_EQ(t.neighbor(t.id_of(3, 2), Dir::East), t.id_of(0, 2));
  EXPECT_EQ(t.neighbor(t.id_of(1, 3), Dir::North), t.id_of(1, 0));
}

TEST(Mesh, L1Distance) {
  const Mesh m = Mesh::square(8);
  EXPECT_EQ(m.distance(m.id_of(0, 0), m.id_of(7, 7)), 14);
  EXPECT_EQ(m.distance(m.id_of(3, 4), m.id_of(3, 4)), 0);
  EXPECT_EQ(m.distance(m.id_of(2, 5), m.id_of(6, 1)), 8);
}

TEST(Mesh, TorusDistanceUsesWrap) {
  const Mesh t = Mesh::square(8, true);
  EXPECT_EQ(t.distance(t.id_of(0, 0), t.id_of(7, 0)), 1);
  EXPECT_EQ(t.distance(t.id_of(0, 0), t.id_of(6, 7)), 3);
  EXPECT_EQ(t.distance(t.id_of(1, 1), t.id_of(5, 5)), 8);  // both ways tie
}

TEST(Mesh, ProfitableDirsMesh) {
  const Mesh m = Mesh::square(8);
  const NodeId from = m.id_of(3, 3);
  EXPECT_EQ(m.profitable_dirs(from, m.id_of(5, 6)),
            dir_bit(Dir::East) | dir_bit(Dir::North));
  EXPECT_EQ(m.profitable_dirs(from, m.id_of(1, 3)), dir_bit(Dir::West));
  EXPECT_EQ(m.profitable_dirs(from, m.id_of(3, 0)), dir_bit(Dir::South));
  EXPECT_EQ(m.profitable_dirs(from, from), DirMask{0});
}

TEST(Mesh, ProfitableDirsTorusTie) {
  const Mesh t = Mesh::square(8, true);
  // Column displacement of exactly 4 on an 8-torus: both E and W profitable.
  const DirMask m = t.profitable_dirs(t.id_of(0, 0), t.id_of(4, 0));
  EXPECT_TRUE(mask_has(m, Dir::East));
  EXPECT_TRUE(mask_has(m, Dir::West));
  EXPECT_FALSE(mask_has(m, Dir::North));
}

TEST(Mesh, ProfitableMovesReduceDistance) {
  const Mesh m = Mesh::square(6);
  const Mesh t = Mesh::square(6, true);
  for (const Mesh* mesh : {&m, &t}) {
    for (NodeId a = 0; a < mesh->num_nodes(); ++a) {
      for (NodeId b = 0; b < mesh->num_nodes(); ++b) {
        const DirMask mask = mesh->profitable_dirs(a, b);
        for (Dir d : kAllDirs) {
          const NodeId nb = mesh->neighbor(a, d);
          if (nb == kInvalidNode) {
            EXPECT_FALSE(mask_has(mask, d));
            continue;
          }
          if (mask_has(mask, d)) {
            EXPECT_EQ(mesh->distance(nb, b), mesh->distance(a, b) - 1);
          } else {
            EXPECT_GE(mesh->distance(nb, b), mesh->distance(a, b));
          }
        }
      }
    }
  }
}

TEST(Mesh, RejectsBadDimensions) {
  EXPECT_THROW(Mesh(0, 5), InvariantViolation);
  EXPECT_THROW(Mesh(5, -1), InvariantViolation);
}

// Exhaustive wrap-tie contract on an even-dimension torus: a displacement
// of exactly dim/2 ties (both ways equally short), the tie flag is set,
// the reported offset is the POSITIVE direction, and both opposite
// directions are profitable. Everything else must not tie.
void check_wrap_ties(const Mesh& t) {
  const std::int32_t w = t.width(), h = t.height();
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      const Coord ca = t.coord_of(a), cb = t.coord_of(b);
      const std::int32_t fwd_col = ((cb.col - ca.col) % w + w) % w;
      const std::int32_t fwd_row = ((cb.row - ca.row) % h + h) % h;
      const bool col_tie = w % 2 == 0 && fwd_col == w / 2;
      const bool row_tie = h % 2 == 0 && fwd_row == h / 2;
      const Delta d = t.delta(a, b);
      EXPECT_EQ(d.east_tie, col_tie) << a << "->" << b;
      EXPECT_EQ(d.north_tie, row_tie) << a << "->" << b;
      const DirMask mask = t.profitable_dirs(a, b);
      if (col_tie) {
        EXPECT_EQ(d.east, w / 2) << "tie must report the positive offset";
        EXPECT_TRUE(mask_has(mask, Dir::East));
        EXPECT_TRUE(mask_has(mask, Dir::West));
      }
      if (row_tie) {
        EXPECT_EQ(d.north, h / 2) << "tie must report the positive offset";
        EXPECT_TRUE(mask_has(mask, Dir::North));
        EXPECT_TRUE(mask_has(mask, Dir::South));
      }
      // Tie or not, the offset magnitude is the wrap distance component.
      EXPECT_EQ(std::abs(d.east), fwd_col <= w - fwd_col ? fwd_col
                                                         : w - fwd_col);
      EXPECT_EQ(std::abs(d.north), fwd_row <= h - fwd_row ? fwd_row
                                                          : h - fwd_row);
    }
  }
}

TEST(Mesh, TorusWrapTiesExhaustiveSquare) {
  check_wrap_ties(Mesh::square(8, /*torus=*/true));
}

TEST(Mesh, TorusWrapTiesExhaustiveNonSquare) {
  check_wrap_ties(Mesh(6, 10, /*torus=*/true));
  check_wrap_ties(Mesh(10, 4, /*torus=*/true));
}

TEST(Mesh, OddTorusNeverTies) {
  const Mesh t(5, 7, /*torus=*/true);
  for (NodeId a = 0; a < t.num_nodes(); ++a)
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      const Delta d = t.delta(a, b);
      EXPECT_FALSE(d.east_tie);
      EXPECT_FALSE(d.north_tie);
    }
}

TEST(Mesh, FlatMeshNeverTies) {
  const Mesh m = Mesh::square(8);
  for (NodeId a = 0; a < m.num_nodes(); ++a)
    for (NodeId b = 0; b < m.num_nodes(); ++b) {
      const Delta d = m.delta(a, b);
      EXPECT_FALSE(d.east_tie);
      EXPECT_FALSE(d.north_tie);
    }
}

// Reference check of the whole edge/distance kernel: on small grids,
// `distance` equals the BFS hop count over `neighbor`, and
// `profitable_dirs` holds exactly the directions whose neighbour is one
// hop closer (both directions of a wrap tie included).
std::vector<std::int32_t> bfs_hops(const Topology& t, NodeId from) {
  std::vector<std::int32_t> hops(static_cast<std::size_t>(t.num_nodes()), -1);
  std::deque<NodeId> frontier{from};
  hops[static_cast<std::size_t>(from)] = 0;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (Dir d : kAllDirs) {
      const NodeId v = t.neighbor(u, d);
      if (v == kInvalidNode || hops[static_cast<std::size_t>(v)] >= 0) continue;
      hops[static_cast<std::size_t>(v)] = hops[static_cast<std::size_t>(u)] + 1;
      frontier.push_back(v);
    }
  }
  return hops;
}

void check_kernel_against_bfs(const Topology& t) {
  SCOPED_TRACE(t.name() + " " + std::to_string(t.width()) + "x" +
               std::to_string(t.height()));
  for (NodeId to = 0; to < t.num_nodes(); ++to) {
    // Hop counts towards `to` equal hop counts from it: links come in
    // opposite pairs on every grid.
    const std::vector<std::int32_t> hops = bfs_hops(t, to);
    for (NodeId from = 0; from < t.num_nodes(); ++from) {
      const std::int32_t h = hops[static_cast<std::size_t>(from)];
      ASSERT_GE(h, 0) << from << " cannot reach " << to;
      EXPECT_EQ(t.distance(from, to), h) << from << "->" << to;
      DirMask closer = 0;
      for (Dir d : kAllDirs) {
        const NodeId nb = t.neighbor(from, d);
        if (nb != kInvalidNode && hops[static_cast<std::size_t>(nb)] == h - 1)
          closer |= dir_bit(d);
      }
      EXPECT_EQ(t.profitable_dirs(from, to), closer) << from << "->" << to;
    }
  }
}

TEST(TopologyKernel, MatchesBfsOnSmallGrids) {
  const std::vector<std::pair<std::int32_t, std::int32_t>> dims = {
      {1, 6}, {6, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 3}, {4, 4}, {5, 5}};
  for (const auto& [w, h] : dims) {
    check_kernel_against_bfs(Mesh(w, h));
    check_kernel_against_bfs(Mesh(w, h, /*torus=*/true));
  }
  check_kernel_against_bfs(CMesh(3, 4, 4));
  check_kernel_against_bfs(CMesh(4, 4, 4));
}

}  // namespace
}  // namespace mr
