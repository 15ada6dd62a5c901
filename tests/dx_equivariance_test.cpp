// Lemma 10 as an executable property: for a destination-exchangeable
// algorithm, swapping the destinations of two packets whose profitable
// masks are unaffected must produce the *identical* execution, with only
// the two destination fields swapped. Farthest-first, which reads full
// destination addresses, serves as the negative control.
#include <gtest/gtest.h>

#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

struct Snapshot {
  std::vector<NodeId> locations;
  std::vector<NodeId> dests;
  std::vector<std::uint64_t> states;
};

Snapshot run_steps(const std::string& algorithm, const Workload& w, int k,
                   Step steps) {
  const Mesh mesh = Mesh::square(12);
  auto algo = make_algorithm(algorithm);
  Engine::Config config;
  config.queue_capacity = k;
  Engine e(mesh, config, *algo);
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
  e.prepare();
  for (Step t = 0; t < steps; ++t) e.step_once();
  Snapshot s;
  for (const Packet& p : e.all_packets()) {
    s.locations.push_back(p.location);
    s.dests.push_back(p.dest);
    s.states.push_back(p.state);
  }
  return s;
}

/// Base workload: a crowd of northeast-bound packets in the southwest
/// corner (contention included), with packets 0 and 1 sharing a node.
Workload base_workload(const Mesh& mesh, NodeId d0, NodeId d1) {
  Workload w;
  w.push_back(Demand{mesh.id_of(0, 0), d0, 0});
  w.push_back(Demand{mesh.id_of(0, 0), d1, 0});
  for (std::int32_t c = 0; c < 4; ++c)
    for (std::int32_t r = 0; r < 4; ++r)
      if (!(c == 0 && r == 0))
        w.push_back(Demand{mesh.id_of(c, r), mesh.id_of(c + 7, r + 7), 0});
  return w;
}

class DxEquivariance : public ::testing::TestWithParam<std::string> {};

/// The Theorem 14 class plus Theorem 15's bounded dimension-order router,
/// which is destination-exchangeable too but uses per-inlink queues.
std::vector<std::string> dx_routers() {
  std::vector<std::string> names = dx_minimal_algorithm_names();
  names.push_back("bounded-dimension-order");
  return names;
}

TEST_P(DxEquivariance, SwapIsInvisible) {
  const Mesh mesh = Mesh::square(12);
  // Both destinations strictly northeast of anywhere packets 0/1 can reach
  // in 5 steps, so their profitable masks stay {N,E} under either pairing.
  const NodeId d0 = mesh.id_of(9, 11);
  const NodeId d1 = mesh.id_of(11, 9);
  const Workload w_orig = base_workload(mesh, d0, d1);
  const Workload w_swap = base_workload(mesh, d1, d0);

  for (int k : {1, 2}) {
    const Snapshot a = run_steps(GetParam(), w_orig, k, 5);
    const Snapshot b = run_steps(GetParam(), w_swap, k, 5);
    ASSERT_EQ(a.locations.size(), b.locations.size());
    // Lemma 10/11: identical configuration, destinations 0/1 swapped.
    EXPECT_EQ(a.locations, b.locations) << GetParam() << " k=" << k;
    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(a.dests[0], b.dests[1]);
    EXPECT_EQ(a.dests[1], b.dests[0]);
    for (std::size_t i = 2; i < a.dests.size(); ++i)
      EXPECT_EQ(a.dests[i], b.dests[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(DxAlgorithms, DxEquivariance,
                         ::testing::ValuesIn(dx_routers()),
                         [](const auto& inf) {
                           std::string n = inf.param;
                           for (char& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(DxEquivariance, FarthestFirstIsNotDx) {
  // Negative control: two packets in one node, both eastbound, different
  // distances. Farthest-first advances the farther one, so swapping the
  // destinations swaps which packet moves — the configurations must differ
  // beyond the destination swap.
  const Mesh mesh = Mesh::square(12);
  Workload w_orig, w_swap;
  w_orig.push_back(Demand{mesh.id_of(0, 0), mesh.id_of(9, 0), 0});
  w_orig.push_back(Demand{mesh.id_of(0, 0), mesh.id_of(5, 0), 0});
  w_swap.push_back(Demand{mesh.id_of(0, 0), mesh.id_of(5, 0), 0});
  w_swap.push_back(Demand{mesh.id_of(0, 0), mesh.id_of(9, 0), 0});
  const Snapshot a = run_steps("farthest-first", w_orig, 2, 2);
  const Snapshot b = run_steps("farthest-first", w_swap, 2, 2);
  EXPECT_NE(a.locations, b.locations);
}

}  // namespace
}  // namespace mr
