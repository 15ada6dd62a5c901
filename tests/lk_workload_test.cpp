// (l,k) workload generators: degree bounds, destination laws, spec-string
// round trips — plus the degree-bound/destination-law properties of the
// pre-existing generators the (l,k) family generalises.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "topo/mesh.hpp"
#include "workload/catalog.hpp"
#include "workload/lk.hpp"
#include "workload/patterns.hpp"

namespace mr {
namespace {

std::vector<int> send_degrees(const Topology& mesh, const Workload& w) {
  std::vector<int> deg(static_cast<std::size_t>(mesh.num_nodes()), 0);
  for (const Demand& d : w) ++deg[static_cast<std::size_t>(d.source)];
  return deg;
}

std::vector<int> recv_degrees(const Topology& mesh, const Workload& w) {
  std::vector<int> deg(static_cast<std::size_t>(mesh.num_nodes()), 0);
  for (const Demand& d : w) ++deg[static_cast<std::size_t>(d.dest)];
  return deg;
}

TEST(LkSpec, ParseFormatRoundTrip) {
  LkSpec spec;
  std::string error;
  ASSERT_TRUE(parse_lk_spec("clustered:2:3:42", &spec, &error)) << error;
  EXPECT_EQ(spec.variant, "clustered");
  EXPECT_EQ(spec.l, 2);
  EXPECT_EQ(spec.k, 3);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(format_lk_spec(spec), "clustered:2:3:42");
  LkSpec again;
  ASSERT_TRUE(parse_lk_spec(format_lk_spec(spec), &again, &error));
  EXPECT_EQ(again, spec);
  // Seed is optional on input.
  ASSERT_TRUE(parse_lk_spec("uniform:1:1", &spec, &error));
  EXPECT_EQ(spec.seed, 1u);
}

TEST(LkSpec, ParseRejectsMalformedSpecs) {
  LkSpec spec;
  std::string error;
  EXPECT_FALSE(parse_lk_spec("uniform:2", &spec, &error));
  EXPECT_FALSE(parse_lk_spec("bogus:2:2", &spec, &error));
  EXPECT_FALSE(parse_lk_spec("uniform:0:2", &spec, &error));
  EXPECT_FALSE(parse_lk_spec("uniform:2:-1", &spec, &error));
  EXPECT_FALSE(parse_lk_spec("uniform:2:2:x", &spec, &error));
  EXPECT_FALSE(parse_lk_spec("uniform:2:2:1:9", &spec, &error));
  // Whole decimal numbers in the field's range only: no wrap to a small
  // value, no sign or trailing text.
  EXPECT_FALSE(parse_lk_spec("uniform:4294967297:1:1", &spec, &error));
  EXPECT_FALSE(parse_lk_spec("uniform:1:4294967297", &spec, &error));
  EXPECT_FALSE(parse_lk_spec("uniform:2x:2", &spec, &error));
  EXPECT_FALSE(parse_lk_spec("uniform:+2:2", &spec, &error));
  EXPECT_FALSE(parse_lk_spec("uniform:2:2:-1", &spec, &error));
  EXPECT_FALSE(parse_lk_spec("uniform:2:2:99999999999999999999", &spec, &error));
}

TEST(LkUniform, DegreeBoundsAndSendLaw) {
  const Mesh mesh = Mesh::square(8);
  for (const auto& [l, k] : {std::pair{1, 1}, {2, 3}, {3, 2}, {4, 4}}) {
    const Workload w = lk_uniform(mesh, l, k, 77);
    EXPECT_TRUE(is_lk(mesh, w, l, k)) << l << "," << k;
    // Every node sends exactly min(l, k): the uniform variant is
    // degree-balanced on the send side by construction.
    const int sends = std::min(l, k);
    EXPECT_EQ(w.size(), static_cast<std::size_t>(mesh.num_nodes() * sends));
    for (int d : send_degrees(mesh, w)) EXPECT_EQ(d, sends);
  }
}

TEST(LkUniform, ReceiveLawExhaustsSlotPool) {
  // With l >= k the demand count equals the receive capacity n*k, so the
  // slot pool forces EVERY node to receive exactly k.
  const Mesh mesh = Mesh::square(6);
  const Workload w = lk_uniform(mesh, 5, 2, 9);
  for (int d : recv_degrees(mesh, w)) EXPECT_EQ(d, 2);
}

TEST(LkUniform, DeterministicInSeed) {
  const Mesh mesh = Mesh::square(7);
  EXPECT_EQ(lk_uniform(mesh, 2, 2, 5), lk_uniform(mesh, 2, 2, 5));
  EXPECT_NE(lk_uniform(mesh, 2, 2, 5), lk_uniform(mesh, 2, 2, 6));
}

TEST(LkClustered, SourcesAndDestsConfinedToBlocks) {
  const Mesh mesh = Mesh::square(8);
  const int l = 2, k = 3;
  const Workload w = lk_clustered(mesh, l, k, 13);
  EXPECT_TRUE(is_lk(mesh, w, l, k));
  // 16 sources * l = 32 send slots vs 16 dests * k = 48 receive slots:
  // the send side binds.
  EXPECT_EQ(w.size(), 32u);
  for (const Demand& d : w) {
    const Coord s = mesh.coord_of(d.source);
    const Coord t = mesh.coord_of(d.dest);
    EXPECT_LT(s.col, 4);
    EXPECT_LT(s.row, 4);
    EXPECT_GE(t.col, 4);
    EXPECT_GE(t.row, 4);
  }
  // The binding side uses its full budget on every node.
  const std::vector<int> sends = send_degrees(mesh, w);
  for (std::int32_t r = 0; r < 4; ++r)
    for (std::int32_t c = 0; c < 4; ++c)
      EXPECT_EQ(sends[static_cast<std::size_t>(mesh.id_of(c, r))], l);
}

TEST(LkClustered, ReceiveSideBindsWhenSmaller) {
  const Mesh mesh = Mesh::square(6);
  const Workload w = lk_clustered(mesh, 4, 1, 3);
  EXPECT_TRUE(is_lk(mesh, w, 4, 1));
  // 9 dests * k=1 receive slots bind; every destination-block node
  // receives exactly one packet.
  EXPECT_EQ(w.size(), 9u);
  const std::vector<int> recvs = recv_degrees(mesh, w);
  for (std::int32_t r = 3; r < 6; ++r)
    for (std::int32_t c = 3; c < 6; ++c)
      EXPECT_EQ(recvs[static_cast<std::size_t>(mesh.id_of(c, r))], 1);
}

TEST(LkWorstCase, BisectionFloodStructure) {
  const Mesh mesh = Mesh::square(8);
  const Workload w = lk_worst_case(mesh, 3, 2);
  EXPECT_TRUE(is_lk(mesh, w, 3, 2));
  // Every west-half node sends min(3,2)=2 copies to its east mirror; all
  // demands cross the vertical bisection within their own row.
  EXPECT_EQ(w.size(), static_cast<std::size_t>(8 * 4 * 2));
  for (const Demand& d : w) {
    const Coord s = mesh.coord_of(d.source);
    const Coord t = mesh.coord_of(d.dest);
    EXPECT_LT(s.col, 4);
    EXPECT_GE(t.col, 4);
    EXPECT_EQ(s.row, t.row);
    EXPECT_EQ(t.col, mesh.width() - 1 - s.col);
  }
}

TEST(LkDispatch, MakeLkWorkloadMatchesDirectCalls) {
  const Mesh mesh = Mesh::square(6);
  LkSpec spec;
  std::string error;
  ASSERT_TRUE(parse_lk_spec("uniform:2:2:11", &spec, &error));
  EXPECT_EQ(make_lk_workload(mesh, spec), lk_uniform(mesh, 2, 2, 11));
  ASSERT_TRUE(parse_lk_spec("clustered:1:2:11", &spec, &error));
  EXPECT_EQ(make_lk_workload(mesh, spec), lk_clustered(mesh, 1, 2, 11));
  ASSERT_TRUE(parse_lk_spec("worst-case:2:3", &spec, &error));
  EXPECT_EQ(make_lk_workload(mesh, spec), lk_worst_case(mesh, 2, 3));
}

TEST(LkPredicate, DetectsViolationsOnBothSides) {
  const Mesh mesh = Mesh::square(4);
  Workload w;
  w.push_back(Demand{0, 5, 0});
  w.push_back(Demand{0, 6, 0});
  EXPECT_TRUE(is_lk(mesh, w, 2, 1));
  EXPECT_FALSE(is_lk(mesh, w, 1, 1));  // node 0 sends twice
  w.push_back(Demand{1, 5, 0});
  EXPECT_FALSE(is_lk(mesh, w, 2, 1));  // node 5 receives twice
  EXPECT_TRUE(is_lk(mesh, w, 2, 2));
}

// ---- Degree-bound / destination-law coverage for the pre-existing
// generators the (l,k) family generalises. ----

TEST(DegreeLaw, RandomHhIsExact) {
  // random_hh claims every node sends AND receives exactly h — stronger
  // than the is_hh upper bound.
  const Mesh mesh = Mesh::square(7);
  for (int h : {1, 2, 4}) {
    const Workload w = random_hh(mesh, h, 23);
    EXPECT_TRUE(is_hh(mesh, w, h));
    EXPECT_TRUE(is_lk(mesh, w, h, h));
    for (int d : send_degrees(mesh, w)) EXPECT_EQ(d, h);
    for (int d : recv_degrees(mesh, w)) EXPECT_EQ(d, h);
  }
}

TEST(DegreeLaw, HotspotConcentratesAllReceives) {
  const Mesh mesh = Mesh::square(8);
  const NodeId sink = mesh.num_nodes() - 1;
  const Workload w = hotspot(mesh, sink, 12);
  EXPECT_EQ(w.size(), 12u);
  // An (l,k) instance with l = 1 and k = |w|, and for no smaller k.
  EXPECT_TRUE(is_lk(mesh, w, 1, 12));
  EXPECT_FALSE(is_lk(mesh, w, 1, 11));
  for (const Demand& d : w) EXPECT_EQ(d.dest, sink);
}

TEST(DestinationLaw, MirrorReflectsColumns) {
  const Mesh mesh = Mesh::square(6);
  for (const Demand& d : mirror(mesh)) {
    const Coord s = mesh.coord_of(d.source);
    const Coord t = mesh.coord_of(d.dest);
    EXPECT_EQ(t.col, mesh.width() - 1 - s.col);
    EXPECT_EQ(t.row, s.row);
  }
}

TEST(DestinationLaw, RotationShiftsModulo) {
  const Mesh mesh = Mesh::square(5);
  for (const Demand& d : rotation(mesh, 2, 3)) {
    const Coord s = mesh.coord_of(d.source);
    const Coord t = mesh.coord_of(d.dest);
    EXPECT_EQ(t.col, (s.col + 2) % 5);
    EXPECT_EQ(t.row, (s.row + 3) % 5);
  }
}

TEST(DestinationLaw, RowToColumnTurnsAtOneNode) {
  const Mesh mesh = Mesh::square(6);
  const Workload w = row_to_column(mesh, 2, 3);
  // One packet per source row node; destinations are distinct rows of
  // column 3 (receive degree 1 — a partial permutation).
  EXPECT_TRUE(is_lk(mesh, w, 1, 1));
  for (const Demand& d : w) {
    EXPECT_EQ(mesh.coord_of(d.source).row, 2);
    EXPECT_EQ(mesh.coord_of(d.dest).col, 3);
  }
}

TEST(Catalog, ListsLkGeneratorsAndPatterns) {
  EXPECT_TRUE(known_workload("lk-uniform"));
  EXPECT_TRUE(known_workload("lk-clustered"));
  EXPECT_TRUE(known_workload("lk-worst-case"));
  EXPECT_TRUE(known_workload("random-permutation"));
  EXPECT_TRUE(known_workload("tornado"));
  EXPECT_FALSE(known_workload("no-such-workload"));
  // Batch generators and open-loop patterns are both represented.
  bool batch = false, open_loop = false;
  for (const WorkloadInfo& info : workload_catalog()) {
    batch = batch || info.kind == "batch";
    open_loop = open_loop || info.kind == "open-loop";
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty());
  }
  EXPECT_TRUE(batch);
  EXPECT_TRUE(open_loop);
}

}  // namespace
}  // namespace mr
