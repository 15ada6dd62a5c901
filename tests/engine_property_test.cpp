// Model-level property suite, parameterised over every registered router:
//  * conservation — every packet is delivered exactly once and its recorded
//    path is a connected source→destination walk on the mesh,
//  * minimality — for minimal routers the path length equals the L1
//    distance (equivalently, every move is profitable),
//  * link capacity — no directed link ever carries two packets in a step,
//    and minimal routers make only profitable hops (checked online by
//    LinkCapacityOracle and ProfitableMoveOracle),
//  * bounded stray — for the §5 nonminimal router every path stays within
//    the rectangle expanded by δ,
//  * determinism — two identical runs produce identical event traces.
#include <gtest/gtest.h>

#include "check/oracles.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

struct Param {
  std::string algorithm;
  int k;
  bool torus;
};

Workload monotone_ne(const Mesh& mesh, std::uint64_t seed) {
  Workload out;
  for (const Demand& d : random_permutation(mesh, seed)) {
    const Coord s = mesh.coord_of(d.source);
    const Coord t = mesh.coord_of(d.dest);
    if (t.col >= s.col && t.row >= s.row) out.push_back(d);
  }
  return out;
}

struct RunArtifacts {
  std::vector<Packet> packets;
  std::vector<TraceEvent> trace;
  bool all_delivered = false;
  bool minimal = false;
  int max_stray = -1;
};

RunArtifacts run_traced(const Param& p, const Mesh& mesh, const Workload& w) {
  auto algo = make_algorithm(p.algorithm);
  Engine::Config config;
  config.queue_capacity = p.k;
  config.stall_limit = 20000;
  Engine e(mesh, config, *algo);
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
  TraceRecorder trace;
  e.add_observer(&trace);
  e.prepare();
  e.run(100000);
  RunArtifacts out;
  out.packets = e.all_packets();
  out.trace = trace.events();
  out.all_delivered = e.all_delivered();
  out.minimal = algo->minimal();
  out.max_stray = algo->max_stray();
  return out;
}

class ModelProperties : public ::testing::TestWithParam<Param> {};

TEST_P(ModelProperties, ConservationAndPaths) {
  const Param p = GetParam();
  const Mesh mesh = Mesh::square(11, p.torus);
  // Central-queue routers get monotone traffic (deadlock-free); the
  // per-inlink router takes the full permutation.
  const Workload w = make_algorithm(p.algorithm)->queue_layout() ==
                             QueueLayout::PerInlink
                         ? random_permutation(mesh, 31)
                         : monotone_ne(mesh, 31);
  const RunArtifacts run = run_traced(p, mesh, w);
  ASSERT_TRUE(run.all_delivered);

  std::vector<int> delivered_count(run.packets.size(), 0);
  for (const TraceEvent& ev : run.trace)
    if (ev.kind == TraceEventKind::Deliver) ++delivered_count[ev.packet];
  for (int c : delivered_count) EXPECT_EQ(c, 1);

  // Reconstruct paths: connected walks ending at the destination.
  for (const Packet& pk : run.packets) {
    NodeId at = pk.source;
    for (const TraceEvent& ev : run.trace) {
      if (ev.packet != pk.id || ev.kind != TraceEventKind::Move) continue;
      EXPECT_EQ(ev.from, at);
      // Each hop is a mesh edge.
      bool adjacent = false;
      for (Dir d : kAllDirs)
        adjacent = adjacent || mesh.neighbor(ev.from, d) == ev.to;
      EXPECT_TRUE(adjacent);
      at = ev.to;
    }
    EXPECT_EQ(at, pk.dest);
  }
}

TEST_P(ModelProperties, MinimalPathsHaveL1Length) {
  const Param p = GetParam();
  const Mesh mesh = Mesh::square(11, p.torus);
  const Workload w = make_algorithm(p.algorithm)->queue_layout() ==
                             QueueLayout::PerInlink
                         ? random_permutation(mesh, 77)
                         : monotone_ne(mesh, 77);
  const RunArtifacts run = run_traced(p, mesh, w);
  ASSERT_TRUE(run.all_delivered);
  std::vector<int> hops(run.packets.size(), 0);
  for (const TraceEvent& ev : run.trace)
    if (ev.kind == TraceEventKind::Move) ++hops[ev.packet];
  for (const Packet& pk : run.packets) {
    const int d = mesh.distance(pk.source, pk.dest);
    if (run.minimal) {
      EXPECT_EQ(hops[pk.id], d) << "packet " << pk.id;
    } else {
      EXPECT_GE(hops[pk.id], d);
      // §5 containment: at most 2·δ extra hops per stray axis excursion
      // pair would be a weaker statement; the strong rectangle check is in
      // BoundedStray below.
    }
  }
}

TEST_P(ModelProperties, LinkCapacityOnePacketPerStep) {
  const Param p = GetParam();
  const Mesh mesh = Mesh::square(11, p.torus);
  const Workload w = make_algorithm(p.algorithm)->queue_layout() ==
                             QueueLayout::PerInlink
                         ? random_permutation(mesh, 5)
                         : monotone_ne(mesh, 5);
  auto algo = make_algorithm(p.algorithm);
  Engine::Config config;
  config.queue_capacity = p.k;
  Engine e(mesh, config, *algo);
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
  // The oracles throw InvariantViolation on the first breach.
  LinkCapacityOracle link_capacity;
  ProfitableMoveOracle profitable(/*minimal=*/true);
  e.add_observer(&link_capacity);
  if (algo->minimal()) e.add_observer(&profitable);
  e.prepare();
  e.run(100000);
  ASSERT_TRUE(e.all_delivered());
}

TEST_P(ModelProperties, DeterministicTraces) {
  const Param p = GetParam();
  const Mesh mesh = Mesh::square(9, p.torus);
  const Workload w = monotone_ne(mesh, 13);
  const RunArtifacts a = run_traced(p, mesh, w);
  const RunArtifacts b = run_traced(p, mesh, w);
  EXPECT_EQ(a.trace, b.trace);
}

std::vector<Param> make_params() {
  std::vector<Param> out;
  for (const std::string& a : algorithm_names()) {
    for (int k : {1, 3}) {
      // The §5 nonminimal router needs k >= 2: deflections reintroduce
      // head-on blocking, which a single buffer slot cannot absorb.
      if (a.rfind("stray-", 0) == 0 && k < 2) continue;
      out.push_back(Param{a, k, false});
    }
  }
  // torus spot-checks for the DX routers
  for (const std::string& a : dx_minimal_algorithm_names())
    out.push_back(Param{a, 2, true});
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllRouters, ModelProperties,
                         ::testing::ValuesIn(make_params()),
                         [](const auto& inf) {
                           std::string n = inf.param.algorithm;
                           for (char& ch : n)
                             if (ch == '-') ch = '_';
                           return n + "_k" + std::to_string(inf.param.k) +
                                  (inf.param.torus ? "_torus" : "");
                         });

TEST(BoundedStray, PathsStayInExpandedRectangle) {
  const Mesh mesh = Mesh::square(12);
  for (int delta : {0, 1, 3}) {
    auto algo = make_algorithm("stray-" + std::to_string(delta));
    Engine::Config config;
    config.queue_capacity = 2;
    Engine e(mesh, config, *algo);
    Workload w;
    for (const Demand& d : random_permutation(mesh, 3)) {
      const Coord s = mesh.coord_of(d.source);
      const Coord t = mesh.coord_of(d.dest);
      if (t.col >= s.col && t.row >= s.row) w.push_back(d);
    }
    for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
    TraceRecorder trace;
    e.add_observer(&trace);
    e.prepare();
    e.run(50000);
    ASSERT_TRUE(e.all_delivered()) << "delta=" << delta;
    for (const Packet& pk : e.all_packets()) {
      const Coord s = mesh.coord_of(pk.source);
      const Coord t = mesh.coord_of(pk.dest);
      for (NodeId node : trace.packet_path(pk.id, pk.source)) {
        const Coord c = mesh.coord_of(node);
        EXPECT_GE(c.col, std::min(s.col, t.col) - delta);
        EXPECT_LE(c.col, std::max(s.col, t.col) + delta);
        EXPECT_GE(c.row, std::min(s.row, t.row) - delta);
        EXPECT_LE(c.row, std::max(s.row, t.row) + delta);
      }
    }
  }
}

}  // namespace
}  // namespace mr
