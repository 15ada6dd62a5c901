// Cross-algorithm behavioural tests: every registered router must deliver
// its workloads, never exceed its queue bound, and (being minimal) strictly
// reduce each moved packet's distance. Parameterised over algorithm × k.
//
// Note on load levels: central-queue routers are subject to classic
// store-and-forward deadlock when the network is saturated and k is small —
// a cycle of full nodes each refusing the other's packet. That is faithful
// to the §2 model (the paper's lower bounds don't require liveness, and its
// upper-bound algorithms are engineered around it: Theorem 15 via four
// per-inlink queues whose dependency order E,W → N,S is acyclic). Tests
// therefore scale offered load with k for the central-queue routers and
// assert full-load delivery only for bounded-dimension-order; the deadlock
// itself is pinned down by CentralQueueDeadlockUnderFullLoad.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/runner.hpp"
#include "routing/dimension_order.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

struct Param {
  std::string algorithm;
  int k;
};

bool central_queue(const std::string& algorithm) {
  return make_algorithm(algorithm)->queue_layout() == QueueLayout::Central;
}

/// Keeps only the demands whose destination lies (weakly) northeast of the
/// source. Monotone traffic makes every blocking chain acyclic — the
/// packet at the maximal col+row frontier can always advance — so it is
/// deadlock-free even for a size-1 central queue.
Workload northeast_only(const Mesh& mesh, const Workload& w) {
  Workload out;
  for (const Demand& d : w) {
    const Coord s = mesh.coord_of(d.source);
    const Coord t = mesh.coord_of(d.dest);
    if (t.col >= s.col && t.row >= s.row) out.push_back(d);
  }
  return out;
}

/// Transpose restricted to sources below the diagonal: pure SE traffic,
/// monotone, hence deadlock-free for central queues.
Workload half_transpose(const Mesh& mesh) {
  Workload out;
  for (const Demand& d : transpose(mesh)) {
    const Coord s = mesh.coord_of(d.source);
    if (s.col < s.row) out.push_back(d);
  }
  return out;
}

class RoutingSuite : public ::testing::TestWithParam<Param> {};

TEST_P(RoutingSuite, DeliversRandomLoad) {
  const auto [algorithm, k] = GetParam();
  RunSpec spec;
  spec.width = spec.height = 12;
  spec.queue_capacity = k;
  spec.algorithm = algorithm;
  const Mesh mesh = Mesh::square(12);
  const Workload full = random_permutation(mesh, 99);
  // Central-queue routers are only deadlock-free on monotone traffic; the
  // per-inlink Theorem 15 router takes the full permutation at any k.
  const Workload w =
      central_queue(algorithm) ? northeast_only(mesh, full) : full;
  const RunResult r = run_workload(spec, w);
  EXPECT_TRUE(r.all_delivered) << algorithm << " k=" << k;
  EXPECT_FALSE(r.stalled);
  EXPECT_LE(r.max_queue, k);
}

TEST_P(RoutingSuite, DeliversTransposeLoad) {
  const auto [algorithm, k] = GetParam();
  RunSpec spec;
  spec.width = spec.height = 12;
  spec.queue_capacity = k;
  spec.algorithm = algorithm;
  const Mesh mesh = Mesh::square(12);
  const Workload w =
      central_queue(algorithm) ? half_transpose(mesh) : transpose(mesh);
  const RunResult r = run_workload(spec, w);
  EXPECT_TRUE(r.all_delivered) << algorithm << " k=" << k;
  EXPECT_LE(r.max_queue, k);
}

TEST_P(RoutingSuite, MovesAreAlwaysMinimal) {
  const auto [algorithm, k] = GetParam();
  const Mesh mesh = Mesh::square(10);
  auto algo = make_algorithm(algorithm);
  if (!algo->minimal()) GTEST_SKIP() << algorithm << " is nonminimal (§5)";
  Engine::Config config;
  config.queue_capacity = k;
  Engine e(mesh, config, *algo);
  const Workload full = random_permutation(mesh, 5);
  const Workload w =
      central_queue(algorithm) ? northeast_only(mesh, full) : full;
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);

  struct MinimalityCheck : StepObserver {
    void on_step(const Sim& eng, const StepDigest& d) override {
      for (const MoveRecord& m : d.moves) {
        const NodeId dest = eng.packet(m.packet).dest;
        EXPECT_EQ(eng.mesh().distance(m.to, dest),
                  eng.mesh().distance(m.from, dest) - 1);
      }
    }
  } checker;
  e.add_observer(&checker);
  e.prepare();
  e.run(5000);
  EXPECT_TRUE(e.all_delivered());
}

TEST_P(RoutingSuite, EmptyWorkloadTrivially) {
  const auto [algorithm, k] = GetParam();
  RunSpec spec;
  spec.width = spec.height = 6;
  spec.queue_capacity = k;
  spec.algorithm = algorithm;
  const RunResult r = run_workload(spec, {});
  EXPECT_TRUE(r.all_delivered);
  EXPECT_EQ(r.steps, 0);
}

std::vector<Param> make_params() {
  std::vector<Param> out;
  for (const std::string& a : algorithm_names()) {
    for (int k : {1, 2, 4}) {
      // The §5 nonminimal stray router needs k >= 2 (deflections
      // reintroduce head-on blocking).
      if (a.rfind("stray-", 0) == 0 && k < 2) continue;
      out.push_back(Param{a, k});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RoutingSuite,
                         ::testing::ValuesIn(make_params()),
                         [](const auto& inf) {
                           std::string n = inf.param.algorithm;
                           for (char& ch : n)
                             if (ch == '-') ch = '_';
                           return n + "_k" + std::to_string(inf.param.k);
                         });

// The deadlock the bounded router is designed around: a saturated mesh with
// a size-1 central queue wedges (no delivery progress within a generous
// budget), while Theorem 15's per-inlink router finishes the same instance.
TEST(CentralQueueDeadlock, UnderFullLoad) {
  const Mesh mesh = Mesh::square(12);
  const Workload w = random_permutation(mesh, 99);
  RunSpec central;
  central.width = central.height = 12;
  central.queue_capacity = 1;
  central.algorithm = "dimension-order";
  central.max_steps = 20000;
  central.stall_limit = 2000;
  const RunResult stuck = run_workload(central, w);
  EXPECT_FALSE(stuck.all_delivered);

  RunSpec bounded = central;
  bounded.algorithm = "bounded-dimension-order";
  const RunResult fine = run_workload(bounded, w);
  EXPECT_TRUE(fine.all_delivered);
  EXPECT_LE(fine.max_queue, 1);
}

TEST(DimensionOrderDir, PrefersHorizontalThenVertical) {
  Dir d;
  ASSERT_TRUE(dimension_order_dir(
      dir_bit(Dir::North) | dir_bit(Dir::East), d));
  EXPECT_EQ(d, Dir::East);
  ASSERT_TRUE(dimension_order_dir(dir_bit(Dir::North) | dir_bit(Dir::West), d));
  EXPECT_EQ(d, Dir::West);
  ASSERT_TRUE(dimension_order_dir(dir_bit(Dir::South), d));
  EXPECT_EQ(d, Dir::South);
  EXPECT_FALSE(dimension_order_dir(0, d));
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_algorithm("no-such-router"), InvariantViolation);
}

TEST(Registry, DxListIsSubset) {
  const auto all = algorithm_names();
  for (const auto& name : dx_minimal_algorithm_names()) {
    EXPECT_NE(std::find(all.begin(), all.end(), name), all.end());
    EXPECT_TRUE(make_algorithm(name)->minimal());
  }
}

// Theorem 15 specifics: full permutations complete at every k, including
// heavy single-column convergence, within the O(n²/k + n) regime.
TEST(BoundedDimensionOrder, FullTransposeEveryK) {
  for (int k : {1, 2, 3, 8}) {
    RunSpec spec;
    spec.width = spec.height = 10;
    spec.queue_capacity = k;
    spec.algorithm = "bounded-dimension-order";
    const Mesh mesh = Mesh::square(10);
    const RunResult r = run_workload(spec, transpose(mesh));
    EXPECT_TRUE(r.all_delivered) << "k=" << k;
    EXPECT_LE(r.max_queue, k);
  }
}

TEST(BoundedDimensionOrder, RespectsTheorem15Shape) {
  // steps ≤ C·(n²/k + n) for a modest constant C on random permutations.
  for (int k : {1, 2, 4}) {
    RunSpec spec;
    spec.width = spec.height = 16;
    spec.queue_capacity = k;
    spec.algorithm = "bounded-dimension-order";
    const Mesh mesh = Mesh::square(16);
    const RunResult r = run_workload(spec, random_permutation(mesh, 3));
    ASSERT_TRUE(r.all_delivered);
    EXPECT_LE(r.steps, 8 * (16 * 16 / k + 16)) << "k=" << k;
  }
}

}  // namespace
}  // namespace mr
