// Additional §6 coverage: degenerate workloads, direction classes, partial
// permutations, schedule structure of the improved variant, and segment
// accounting.
#include <gtest/gtest.h>

#include "check/fastroute_oracle.hpp"
#include "fastroute/bounds.hpp"
#include "fastroute/fastroute.hpp"
#include "harness/runner.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

RunResult go(std::int32_t n, const Workload& w,
             FastRouteOracle* lemmas = nullptr) {
  const FastRouteAlgorithm algo;
  FastRouteOracle own(n, algo.options());
  if (lemmas == nullptr) lemmas = &own;
  RunSpec spec;
  spec.width = spec.height = n;
  spec.algorithm = algo.name();
  spec.queue_capacity = algo.queue_bound();
  spec.stall_limit = 0;
  spec.max_steps = lemmas->schedule().length + 1;
  RunHooks hooks;
  hooks.step_observers.push_back(lemmas);
  return run_workload(spec, w, hooks);
}

TEST(FastRouteExtra, EmptyWorkload) {
  const RunResult r = go(27, {});
  EXPECT_TRUE(r.all_delivered);
  EXPECT_EQ(r.steps, 0);
}

TEST(FastRouteExtra, AllFourDirectionClasses) {
  const Mesh mesh = Mesh::square(27);
  Workload w;
  w.push_back(Demand{mesh.id_of(2, 2), mesh.id_of(20, 22), 0});   // NE
  w.push_back(Demand{mesh.id_of(24, 3), mesh.id_of(4, 21), 0});   // NW
  w.push_back(Demand{mesh.id_of(22, 23), mesh.id_of(3, 2), 0});   // SW
  w.push_back(Demand{mesh.id_of(1, 25), mesh.id_of(19, 5), 0});   // SE
  // Pure axis movers, one per class convention.
  w.push_back(Demand{mesh.id_of(5, 5), mesh.id_of(5, 20), 0});    // N (NE)
  w.push_back(Demand{mesh.id_of(20, 8), mesh.id_of(4, 8), 0});    // W (NW)
  w.push_back(Demand{mesh.id_of(9, 20), mesh.id_of(9, 4), 0});    // S (SW)
  w.push_back(Demand{mesh.id_of(3, 13), mesh.id_of(22, 13), 0});  // E (SE)
  const RunResult r = go(27, w);
  EXPECT_TRUE(r.all_delivered);
}

TEST(FastRouteExtra, SelfDeliveries) {
  const Mesh mesh = Mesh::square(27);
  Workload w;
  for (NodeId u = 0; u < 27; ++u) w.push_back(Demand{u, u, 0});
  const RunResult r = go(27, w);
  EXPECT_TRUE(r.all_delivered);
  EXPECT_EQ(r.steps, 0);  // everything delivered at injection
}

TEST(FastRouteExtra, HalfLoadPartialPermutation) {
  const Mesh mesh = Mesh::square(27);
  const RunResult r = go(27, random_partial_permutation(mesh, 0.5, 9));
  EXPECT_TRUE(r.all_delivered);
}

TEST(FastRouteExtra, AdjacentDestinations) {
  // Every packet one hop from home: exercised almost entirely by the base
  // cases.
  const Mesh mesh = Mesh::square(27);
  Workload w;
  for (std::int32_t c = 0; c + 1 < 27; c += 2)
    for (std::int32_t r = 0; r < 27; r += 2)
      w.push_back(Demand{mesh.id_of(c, r), mesh.id_of(c + 1, r), 0});
  const RunResult r = go(27, w);
  EXPECT_TRUE(r.all_delivered);
}

TEST(FastRouteExtra, RotationWorkload) {
  const Mesh mesh = Mesh::square(27);
  const RunResult r = go(27, rotation(mesh, 13, 7));
  EXPECT_TRUE(r.all_delivered);
  EXPECT_LE(r.steps, FastRouteBounds::theorem34_steps(27));
}

TEST(FastRouteExtra, SegmentStatsAccountForEveryMove) {
  // The oracle's per-segment counts cover every hop of the run, the last
  // step's deliveries included.
  FastRouteOracle lemmas(27, FastRouteAlgorithm::Options::baseline());
  const Workload w = random_permutation(Mesh::square(27), 4);
  const RunResult r = go(27, w, &lemmas);
  ASSERT_TRUE(r.all_delivered);
  std::int64_t moves = 0;
  for (const FastRouteOracle::SegmentStats& st : lemmas.stats())
    moves += st.moves;
  // total_moves counts the hops that arrive; each packet not born at its
  // destination also makes one delivering hop.
  std::int64_t delivering_hops = 0;
  for (const Demand& d : w) delivering_hops += d.source != d.dest;
  EXPECT_EQ(moves, r.total_moves + delivering_hops);
  const auto& last = lemmas.schedule().segments.back();
  EXPECT_EQ(lemmas.stats().back().last_move_offset, r.steps - last.start);
}

TEST(FastRouteExtra, ScheduleAccounting) {
  const FastRouteAlgorithm::Schedule schedule(
      81, FastRouteAlgorithm::Options::baseline());
  // Segments are contiguous, cover [0, length), and respect the
  // per-iteration structure: j=0 has 1 tiling, j=1 has 3, each phase is
  // March, SSeven, SSodd, Balance; plus one base case per class.
  Step expected_start = 0;
  int base_cases = 0;
  for (const auto& seg : schedule.segments) {
    EXPECT_EQ(seg.start, expected_start);
    EXPECT_GE(seg.length, 1);
    EXPECT_EQ(schedule.segment_at(seg.start + 1),
              schedule.segment_at(seg.end()));
    EXPECT_EQ(&schedule.segments[schedule.segment_at(seg.end())], &seg);
    expected_start += seg.length;
    if (seg.kind == FastRouteAlgorithm::Kind::BaseCase) {
      ++base_cases;
      EXPECT_EQ(seg.length, FastRouteBounds::base_case_steps());
    }
    if (seg.kind == FastRouteAlgorithm::Kind::March) {
      EXPECT_EQ(seg.length, Step(408) * seg.d - 1);
    }
    if (seg.kind == FastRouteAlgorithm::Kind::Balance) {
      EXPECT_EQ(seg.length, 3 * Step(seg.tile) - 4);
    }
  }
  EXPECT_EQ(expected_start, schedule.length);
  EXPECT_EQ(schedule.segment_at(schedule.length + 1),
            schedule.segments.size());
  EXPECT_EQ(base_cases, 4);
  // n=81: per class (1 + 3) tilings × 2 phases × 4 segments + base = 33.
  EXPECT_EQ(schedule.segments.size(), 4u * (4u * 2u * 4u + 1u));
}

TEST(FastRouteExtra, ImprovedScheduleUsesSmallerQ) {
  const FastRouteAlgorithm::Schedule base(
      81, FastRouteAlgorithm::Options::baseline());
  const FastRouteAlgorithm::Schedule improved(
      81, FastRouteAlgorithm::Options::improved());
  // Same number of segments, shorter j>=1 March/SS segments.
  ASSERT_EQ(base.segments.size(), improved.segments.size());
  bool some_shorter = false;
  for (std::size_t i = 0; i < base.segments.size(); ++i) {
    const auto& b = base.segments[i];
    const auto& m = improved.segments[i];
    EXPECT_EQ(int(b.kind), int(m.kind));
    if (b.j >= 1 && b.kind == FastRouteAlgorithm::Kind::March) {
      EXPECT_LT(m.length, b.length);
      some_shorter = true;
    }
  }
  EXPECT_TRUE(some_shorter);
  EXPECT_LT(improved.length, base.length);
}

TEST(FastRouteExtra, KindAndClassNames) {
  EXPECT_STREQ(FastRouteAlgorithm::kind_name(
                   FastRouteAlgorithm::Kind::March),
               "March");
  EXPECT_STREQ(FastRouteAlgorithm::class_name(0), "NE");
  EXPECT_STREQ(FastRouteAlgorithm::class_name(3), "SE");
}

}  // namespace
}  // namespace mr
