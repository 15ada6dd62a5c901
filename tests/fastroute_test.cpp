// §6 algorithm (Theorem 34): correctness (delivery + minimality), the
// Lemma 28 queue bound, the Theorem 34 / improved step bounds, and the
// Lemma 19 tiling cover property. The per-phase Lemmas 29–32 are checked
// by FastRouteOracle on every run (it throws on violation), so any
// completed run certifies them.
#include <gtest/gtest.h>

#include "check/fastroute_oracle.hpp"
#include "check/oracles.hpp"
#include "fastroute/bounds.hpp"
#include "fastroute/fastroute.hpp"
#include "fastroute/tiling.hpp"
#include "harness/runner.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

RunResult run_fastroute(std::int32_t n, const Workload& w,
                        FastRouteAlgorithm::Options options =
                            FastRouteAlgorithm::Options::baseline()) {
  const FastRouteAlgorithm algo(options);
  FastRouteOracle lemmas(n, options);
  ProfitableMoveOracle minimal(/*minimal=*/true);
  RunSpec spec;
  spec.width = spec.height = n;
  spec.algorithm = algo.name();
  spec.queue_capacity = algo.queue_bound();
  spec.stall_limit = 0;  // idle phases are part of the schedule
  spec.max_steps = lemmas.schedule().length + 1;
  RunHooks hooks;
  hooks.step_observers = {&lemmas, &minimal};
  return run_workload(spec, w, hooks);
}

TEST(Tiling, OriginsPartitionTheMesh) {
  for (int offset = 0; offset < 3; ++offset) {
    const Tiling t(81, 27, offset);
    for (std::int32_t x = 0; x < 81; ++x) {
      const std::int32_t o = t.origin1d(x);
      EXPECT_LE(o, x);
      EXPECT_LT(x, o + 27);
      EXPECT_EQ((o + offset * 9) % 27, 0);
    }
  }
}

TEST(Tiling, Lemma19CoverExhaustive) {
  // Any two nodes within T/3 in both dimensions share a tile of one of the
  // three tilings — exhaustively on a 27-mesh with T = 9.
  const std::int32_t n = 27, T = 9, h = T / 3;
  for (std::int32_t ac = 0; ac < n; ++ac)
    for (std::int32_t ar = 0; ar < n; ++ar)
      for (std::int32_t dc = -h; dc <= h; ++dc)
        for (std::int32_t dr = -h; dr <= h; ++dr) {
          const Coord a{ac, ar};
          const Coord b{ac + dc, ar + dr};
          if (b.col < 0 || b.col >= n || b.row < 0 || b.row >= n) continue;
          EXPECT_NE(covering_tiling(n, T, a, b), -1)
              << "(" << ac << "," << ar << ") vs (" << b.col << "," << b.row
              << ")";
        }
}

TEST(FastRoute, ScheduleShape) {
  const FastRouteAlgorithm::Schedule schedule(
      27, FastRouteAlgorithm::Options::baseline());
  // n = 27: per class one iteration (j=0, single tiling, vertical +
  // horizontal) and a base case: 4·(2·4 + 1) = 36 segments.
  EXPECT_EQ(schedule.segments.size(), 36u);
  // Theorem 34: the schedule is below 972n even with the loose constants.
  EXPECT_LE(schedule.length, FastRouteBounds::theorem34_steps(27));
}

TEST(FastRoute, SinglePacket) {
  const Mesh mesh = Mesh::square(27);
  Workload w{Demand{mesh.id_of(3, 4), mesh.id_of(20, 22), 0}};
  const RunResult r = run_fastroute(27, w);
  EXPECT_TRUE(r.all_delivered);
}

TEST(FastRoute, RandomPermutation27) {
  const Mesh mesh = Mesh::square(27);
  const RunResult r = run_fastroute(27, random_permutation(mesh, 11));
  EXPECT_TRUE(r.all_delivered);
  EXPECT_LE(r.steps, FastRouteBounds::theorem34_steps(27));
  FastRouteBounds bounds;
  EXPECT_LE(r.max_queue, bounds.total_queue_bound());
}

TEST(FastRoute, Transpose27) {
  const Mesh mesh = Mesh::square(27);
  const RunResult r = run_fastroute(27, transpose(mesh));
  EXPECT_TRUE(r.all_delivered);
}

TEST(FastRoute, Mirror27) {
  const Mesh mesh = Mesh::square(27);
  const RunResult r = run_fastroute(27, mirror(mesh));
  EXPECT_TRUE(r.all_delivered);
}

TEST(FastRoute, RandomPermutation81) {
  const Mesh mesh = Mesh::square(81);
  const RunResult r = run_fastroute(81, random_permutation(mesh, 7));
  EXPECT_TRUE(r.all_delivered);
  EXPECT_LE(r.steps, FastRouteBounds::theorem34_steps(81));
}

TEST(FastRoute, ImprovedVariantIsFasterSchedule) {
  const Mesh mesh = Mesh::square(81);
  const RunResult baseline =
      run_fastroute(81, random_permutation(mesh, 7));
  const RunResult improved = run_fastroute(
      81, random_permutation(mesh, 7), FastRouteAlgorithm::Options::improved());
  EXPECT_TRUE(improved.all_delivered);
  EXPECT_LT(improved.steps, baseline.steps);
  EXPECT_LT(FastRouteAlgorithm::Schedule(
                81, FastRouteAlgorithm::Options::improved())
                .length,
            FastRouteAlgorithm::Schedule(
                81, FastRouteAlgorithm::Options::baseline())
                .length);
  EXPECT_LE(improved.steps, FastRouteBounds::improved_steps(81));
}

TEST(FastRoute, RejectsBadMeshes) {
  RunSpec spec;
  spec.width = spec.height = 32;  // not a power of 3
  spec.algorithm = "fastroute";
  spec.queue_capacity = FastRouteAlgorithm().queue_bound();
  EXPECT_THROW(run_workload(spec, {Demand{0, 5, 0}}), InvariantViolation);
}

TEST(FastRoute, RejectsSmallQueueCapacity) {
  RunSpec spec;
  spec.width = spec.height = 27;
  spec.algorithm = "fastroute";
  spec.queue_capacity = 10;  // below the Lemma 28 bound
  EXPECT_THROW(run_workload(spec, {Demand{0, 5, 0}}), InvariantViolation);
}

}  // namespace
}  // namespace mr
