// Harness-level tests: run driver semantics, budgets, sweep determinism,
// and the durable-run checkpoint store.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "topo/mesh.hpp"
#include "traffic/source.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

TEST(Runner, DefaultBudgetCoversTheorem15) {
  // The auto budget must dominate the worst bound of any built-in router.
  for (int n : {16, 64, 256}) {
    for (int k : {1, 4}) {
      const Step budget = default_step_budget(n, n, k);
      EXPECT_GE(budget, 2 * (std::int64_t(n) * n / k + n));  // Thm 15 slack
      EXPECT_GE(budget, 972 * std::int64_t(n));              // Thm 34
    }
  }
}

TEST(Runner, ReportsStall) {
  // Head-on pair with k=1 wedges dimension-order; the result must say so.
  const Mesh mesh = Mesh::square(6);
  RunSpec spec;
  spec.width = spec.height = 6;
  spec.queue_capacity = 1;
  spec.algorithm = "dimension-order";
  spec.max_steps = 10000;
  spec.stall_limit = 100;
  Workload w;
  w.push_back(Demand{mesh.id_of(2, 2), mesh.id_of(5, 2), 0});
  w.push_back(Demand{mesh.id_of(3, 2), mesh.id_of(0, 2), 0});
  const RunResult r = run_workload(spec, w);
  EXPECT_FALSE(r.all_delivered);
  EXPECT_TRUE(r.stalled);
  EXPECT_LT(r.steps, 10000);  // the stall guard cut the run short
}

TEST(Runner, MetricsAreConsistent) {
  const Mesh mesh = Mesh::square(10);
  RunSpec spec;
  spec.width = spec.height = 10;
  spec.queue_capacity = 2;
  spec.algorithm = "bounded-dimension-order";
  const Workload w = random_permutation(mesh, 4);
  const RunResult r = run_workload(spec, w);
  ASSERT_TRUE(r.all_delivered);
  EXPECT_EQ(r.packets, w.size());
  EXPECT_EQ(r.delivered, w.size());
  EXPECT_LE(r.latency.p50, r.latency.max);
  EXPECT_LE(r.latency.max, r.steps);
  EXPECT_GE(r.total_moves, std::int64_t(0));
  EXPECT_LE(r.max_queue, 2);
}

TEST(Runner, RepeatedRunsIdentical) {
  const Mesh mesh = Mesh::square(12);
  RunSpec spec;
  spec.width = spec.height = 12;
  spec.queue_capacity = 3;
  spec.algorithm = "adaptive-alternate";
  Workload w;
  for (const Demand& d : random_permutation(mesh, 8)) {
    const Coord s = mesh.coord_of(d.source);
    const Coord t = mesh.coord_of(d.dest);
    if (t.col >= s.col && t.row >= s.row) w.push_back(d);
  }
  const RunResult a = run_workload(spec, w);
  const RunResult b = run_workload(spec, w);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.latency.p50, b.latency.p50);
}

TEST(Runner, EngineModeSequentialAndSharded) {
  const Mesh mesh = Mesh::square(8);
  RunSpec spec;
  spec.width = spec.height = 8;
  spec.queue_capacity = 2;
  spec.algorithm = "bounded-dimension-order";
  const Workload w = random_permutation(mesh, 3);

  const RunResult seq = run_workload(spec, w);
  EXPECT_EQ(seq.engine_mode, EngineMode::Sequential);

  spec.engine_shards = 2;
  const RunResult sharded = run_workload(spec, w);
  EXPECT_EQ(sharded.engine_mode, EngineMode::Sharded);
  EXPECT_EQ(sharded.steps, seq.steps);
  EXPECT_EQ(sharded.total_moves, seq.total_moves);
}

TEST(Runner, InterceptorForcesSequentialFallback) {
  // Sharding + a step interceptor cannot coexist (phase (b) is inherently
  // sequential); the runner must fall back AND say so in the result.
  class NoopInterceptor final : public StepInterceptor {
   public:
    void after_schedule(Sim&, std::span<const ScheduledMove>) override {}
  };
  const Mesh mesh = Mesh::square(8);
  RunSpec spec;
  spec.width = spec.height = 8;
  spec.queue_capacity = 2;
  spec.algorithm = "bounded-dimension-order";
  spec.engine_shards = 2;
  spec.engine_threads = 2;
  const Workload w = random_permutation(mesh, 3);
  NoopInterceptor noop;
  RunHooks hooks;
  hooks.interceptor = &noop;
  const RunResult r = run_workload(spec, w, hooks);
  EXPECT_EQ(r.engine_mode, EngineMode::SequentialFallback);
  EXPECT_TRUE(r.all_delivered);
  // Without the sharding request the same run is plain "sequential".
  spec.engine_shards = spec.engine_threads = 1;
  const RunResult plain = run_workload(spec, w, hooks);
  EXPECT_EQ(plain.engine_mode, EngineMode::Sequential);
  EXPECT_EQ(plain.steps, r.steps);
}

TEST(Runner, EngineModeRoundTrips) {
  for (const EngineMode mode : {EngineMode::Sequential, EngineMode::Sharded,
                                EngineMode::SequentialFallback}) {
    const std::optional<EngineMode> parsed = parse_engine_mode(to_string(mode));
    ASSERT_TRUE(parsed.has_value()) << to_string(mode);
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_engine_mode("parallel").has_value());
  EXPECT_FALSE(parse_engine_mode("").has_value());
}

TEST(Runner, ResolvedTopologyDefaultsToMesh) {
  RunSpec spec;
  EXPECT_EQ(spec.resolved_topology(), "mesh");
  spec.topology = "torus";
  EXPECT_EQ(spec.resolved_topology(), "torus");
  spec.topology = "cmesh-4";
  EXPECT_EQ(spec.resolved_topology(), "cmesh-4");
}

TEST(Runner, NamedTorusTopologyRoutesOnWrapLinks) {
  const Mesh torus = Mesh::square(8, /*torus=*/true);
  const Workload w = random_permutation(torus, 11);
  RunSpec mesh_spec;
  mesh_spec.width = mesh_spec.height = 8;
  mesh_spec.queue_capacity = 2;
  mesh_spec.algorithm = "dimension-order";
  RunSpec torus_spec = mesh_spec;
  torus_spec.topology = "torus";
  const RunResult a = run_workload(mesh_spec, w);
  const RunResult b = run_workload(torus_spec, w);
  // Wrap links shorten paths, so the torus run moves strictly less.
  EXPECT_TRUE(a.all_delivered);
  EXPECT_TRUE(b.all_delivered);
  EXPECT_LT(b.total_moves, a.total_moves);
}

TEST(Runner, CmeshRunsEndToEnd) {
  // Router-space demands on the registry cmesh: the engine routes the
  // 4×4 router grid exactly like a plain 4×4 mesh.
  RunSpec spec;
  spec.width = spec.height = 4;
  spec.topology = "cmesh-4";
  spec.queue_capacity = 2;
  spec.algorithm = "bounded-dimension-order";
  const Mesh grid = Mesh::square(4);
  const Workload w = random_permutation(grid, 5);
  const RunResult r = run_workload(spec, w);
  EXPECT_TRUE(r.all_delivered);
  EXPECT_EQ(r.packets, w.size());
}

TEST(Runner, UnknownTopologyThrows) {
  RunSpec spec;
  spec.width = spec.height = 4;
  spec.topology = "hypercube";
  spec.algorithm = "dimension-order";
  EXPECT_THROW(run_workload(spec, {}), InvariantViolation);
}

/// Counts the steps a run executes; at step `copy_at` it copies the
/// store's snapshot file (a mid-run checkpoint then) to `copy`, which
/// stands in for what a crash at that point would leave.
struct StoreWatch final : StepObserver {
  std::string ckpt, copy;
  Step copy_at = -1;
  int steps = 0;
  void on_step(const Sim&, const StepDigest& d) override {
    ++steps;
    if (d.step == copy_at)
      std::filesystem::copy_file(
          ckpt, copy, std::filesystem::copy_options::overwrite_existing);
  }
};

TEST(Runner, CheckpointStoreResumesBitIdentically) {
  const std::string dir = ::testing::TempDir() + "runner_ckpt_store";
  std::filesystem::remove_all(dir);
  const Mesh mesh = Mesh::square(8);
  TrafficSpec traffic;
  traffic.rate = 0.1;
  traffic.seed = 21;

  RunSpec spec;
  spec.width = spec.height = 8;
  spec.queue_capacity = 2;
  spec.algorithm = "bounded-dimension-order";
  spec.traffic_steps = 64;
  spec.stall_limit = 4096;

  StoreWatch watch;
  const auto run_open_loop = [&](const RunSpec& s) {
    BernoulliSource source(mesh, traffic);
    RunHooks hooks;
    hooks.traffic = &source;
    hooks.step_observers = {&watch};
    watch.steps = 0;
    return run_workload(s, {}, hooks);
  };

  // Checkpointing must not perturb the run at all. During step 42 the
  // store holds the snapshot of step 40.
  const RunResult baseline = run_open_loop(spec);
  ASSERT_GT(baseline.steps, 48);
  spec.checkpoint.dir = dir;
  spec.checkpoint.key = "open_loop";
  spec.checkpoint.every = 8;
  watch.ckpt = spec.checkpoint.snapshot_path();
  watch.copy = dir + "/mid.ckpt";
  watch.copy_at = 42;
  EXPECT_EQ(run_open_loop(spec), baseline);
  watch.copy_at = -1;
  EXPECT_EQ(read_snapshot_file(watch.copy).meta.step, 40);
  EXPECT_EQ(read_snapshot_file(watch.ckpt).meta.step, baseline.steps);

  // A finished store restores its final snapshot and executes no step.
  EXPECT_EQ(run_open_loop(spec), baseline);
  EXPECT_EQ(watch.steps, 0);

  // Crash simulation: the mid-run snapshot is back in the store. The
  // resumed run (fresh source; its RNG state comes from the snapshot's
  // aux blobs) reproduces the uninterrupted result bit for bit.
  std::filesystem::copy_file(watch.copy, watch.ckpt,
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_EQ(run_open_loop(spec), baseline);
  EXPECT_EQ(watch.steps, baseline.steps - 40);

  // A torn store is a typed error, never a silent fresh start.
  std::string bytes;
  ASSERT_TRUE(read_text_file(watch.ckpt, &bytes));
  std::ofstream(watch.ckpt, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW(run_open_loop(spec), SnapshotError);
}

TEST(Sweep, ResultsArePositionAddressed) {
  const auto results = sweep<int>(64, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i], static_cast<int>(i * i));
}

TEST(Sweep, RunsConcurrently) {
  std::atomic<int> counter{0};
  const auto results = sweep<int>(32, [&](std::size_t) {
    return counter.fetch_add(1);
  });
  // All 32 executed exactly once (values are a permutation of 0..31).
  std::vector<int> sorted(results.begin(), results.end());
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 32; ++i) EXPECT_EQ(sorted[i], i);
}

}  // namespace
}  // namespace mr
