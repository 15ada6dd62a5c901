// Unit tests for the lower-bound geometry (classes.hpp): box membership,
// line placement and the class-membership predicate, exercised exhaustively
// on small instances.
#include <gtest/gtest.h>

#include "lower_bound/classes.hpp"

namespace mr {
namespace {

// A small, hand-checkable geometry: n = 24, cn = 4 ⇒ γ = 2, lines at
// columns/rows 2+i (0-based); say 3 classes.
MainGeometry small_geo() { return MainGeometry(24, 4, 3); }

TEST(MainGeometry, LinesAndBoxes) {
  const MainGeometry g = small_geo();
  EXPECT_EQ(g.line(0), 2);  // γ
  EXPECT_EQ(g.line(1), 3);  // N_1-column = paper column cn = 4 (1-based)
  EXPECT_EQ(g.line(2), 4);
  EXPECT_EQ(g.line(3), 5);

  // 0-box: cols/rows 0..2; 1-box: 0..3 (the cn×cn submesh).
  EXPECT_TRUE(g.in_box(Coord{2, 2}, 0));
  EXPECT_FALSE(g.in_box(Coord{3, 2}, 0));
  EXPECT_TRUE(g.in_box(Coord{3, 3}, 1));
  EXPECT_FALSE(g.in_box(Coord{4, 3}, 1));
  EXPECT_FALSE(g.in_box(Coord{3, 4}, 1));
  EXPECT_TRUE(g.in_box(Coord{0, 0}, 0));
}

TEST(MainGeometry, BoxesAreNested) {
  const MainGeometry g = small_geo();
  for (std::int32_t c = 0; c < 24; ++c)
    for (std::int32_t r = 0; r < 24; ++r)
      for (std::int64_t i = 0; i < 3; ++i) {
        if (g.in_box(Coord{c, r}, i)) {
          EXPECT_TRUE(g.in_box(Coord{c, r}, i + 1));
        }
      }
}

TEST(MainGeometry, ClassifyNPackets) {
  const MainGeometry g = small_geo();
  const Coord src{1, 1};  // inside the 1-box
  // N_2-packet: destination column 4, strictly north of row 4.
  const PacketClass n2 = g.classify(src, Coord{4, 10});
  EXPECT_EQ(n2.type, ClassType::N);
  EXPECT_EQ(n2.i, 2);
  // On the column but not north of the row: the corner (4,4) is unclassed;
  // (4,3) is actually an E_1 destination (on the E_1-row, east of the
  // N_1-column); (4,2) sits south of every E-row and is unclassed.
  EXPECT_EQ(g.classify(src, Coord{4, 4}).type, ClassType::None);
  const PacketClass e1 = g.classify(src, Coord{4, 3});
  EXPECT_EQ(e1.type, ClassType::E);
  EXPECT_EQ(e1.i, 1);
  EXPECT_EQ(g.classify(src, Coord{4, 2}).type, ClassType::None);
}

TEST(MainGeometry, ClassifyEPackets) {
  const MainGeometry g = small_geo();
  const Coord src{0, 3};
  const PacketClass e1 = g.classify(src, Coord{9, 3});
  EXPECT_EQ(e1.type, ClassType::E);
  EXPECT_EQ(e1.i, 1);
  EXPECT_EQ(g.classify(src, Coord{3, 3}).type, ClassType::None);
}

TEST(MainGeometry, SourceOutsideSubmeshIsNeverClassed) {
  const MainGeometry g = small_geo();
  // Same class-qualifying destination, source outside the 1-box: filler.
  EXPECT_EQ(g.classify(Coord{10, 10}, Coord{4, 10}).type, ClassType::None);
  EXPECT_EQ(g.classify(Coord{4, 0}, Coord{4, 10}).type, ClassType::None);
}

TEST(MainGeometry, ClassesBeyondRangeUnclassed) {
  const MainGeometry g = small_geo();
  const Coord src{1, 1};
  // Column γ+4 = 6 would be class 4 > classes() = 3.
  EXPECT_EQ(g.classify(src, Coord{6, 10}).type, ClassType::None);
  // Column γ = 2 is not a class line.
  EXPECT_EQ(g.classify(src, Coord{2, 10}).type, ClassType::None);
}

TEST(MainGeometry, NAndEAreMutuallyExclusive) {
  const MainGeometry g = small_geo();
  const Coord src{0, 0};
  int n_count = 0, e_count = 0, none = 0;
  for (std::int32_t c = 0; c < 24; ++c) {
    for (std::int32_t r = 0; r < 24; ++r) {
      const PacketClass cls = g.classify(src, Coord{c, r});
      switch (cls.type) {
        case ClassType::N: ++n_count; break;
        case ClassType::E: ++e_count; break;
        case ClassType::None: ++none; break;
      }
      if (cls.type != ClassType::None) {
        EXPECT_GE(cls.i, 1);
        EXPECT_LE(cls.i, 3);
      }
    }
  }
  // N destinations: 3 columns × rows strictly north of the line.
  EXPECT_EQ(n_count, (24 - 4) + (24 - 5) + (24 - 6));
  EXPECT_EQ(e_count, (24 - 4) + (24 - 5) + (24 - 6));
  EXPECT_EQ(none, 24 * 24 - n_count - e_count);
}

TEST(MainGeometry, DiagonalCornerIsUnclassedDest) {
  const MainGeometry g = small_geo();
  // Destinations on the diagonal (col == row) are corners of the boxes and
  // belong to neither class.
  for (std::int64_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(
        g.classify(Coord{0, 0}, Coord{g.line(i), g.line(i)}).type,
        ClassType::None);
  }
}

}  // namespace
}  // namespace mr
