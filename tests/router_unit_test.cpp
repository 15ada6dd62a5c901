// Focused per-router unit tests: the specific scheduling disciplines each
// router promises, observed on hand-built micro-scenarios.
#include <gtest/gtest.h>

#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

struct Micro {
  Mesh mesh = Mesh::square(8);
  std::unique_ptr<Algorithm> algo;
  std::unique_ptr<Engine> engine;
  TraceRecorder trace;

  explicit Micro(const std::string& name, int k = 4,
                 std::int32_t side = 8) {
    mesh = Mesh::square(side);
    algo = make_algorithm(name);
    Engine::Config config;
    config.queue_capacity = k;
    config.stall_limit = 5000;
    engine = std::make_unique<Engine>(mesh, config, *algo);
  }
  PacketId add(std::int32_t sc, std::int32_t sr, std::int32_t tc,
               std::int32_t tr) {
    return engine->add_packet(mesh.id_of(sc, sr), mesh.id_of(tc, tr));
  }
  void run(Step budget = 1000) {
    engine->add_observer(&trace);
    engine->prepare();
    engine->run(budget);
  }
  std::vector<NodeId> path(PacketId p) {
    return trace.packet_path(p, engine->packet(p).source);
  }
};

// ---- dimension order ---------------------------------------------------

TEST(DimensionOrder, RowCompletesBeforeColumn) {
  Micro m("dimension-order");
  const PacketId p = m.add(1, 1, 5, 6);
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  const auto path = m.path(p);
  // All column-1..5 moves happen in row 1 first, then straight north.
  for (std::size_t i = 1; i < path.size(); ++i) {
    const Coord c = m.mesh.coord_of(path[i]);
    if (i <= 4) {
      EXPECT_EQ(c.row, 1);
      EXPECT_EQ(c.col, std::int32_t(1 + i));
    } else {
      EXPECT_EQ(c.col, 5);
    }
  }
}

TEST(DimensionOrder, FifoAmongContenders) {
  // Two eastbound packets in one node: the earlier-arrived (lower slot)
  // moves first.
  Micro m("dimension-order");
  const PacketId first = m.add(0, 0, 5, 0);
  const PacketId second = m.add(0, 0, 6, 0);
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  // First recorded move must belong to `first`.
  ASSERT_FALSE(m.trace.events().empty());
  EXPECT_EQ(m.trace.events()[0].packet, first);
  EXPECT_GT(m.engine->packet(second).delivered_at,
            m.engine->packet(first).delivered_at - 2);
}

// ---- adaptive-alternate ------------------------------------------------

TEST(AdaptiveAlternate, RoutesAroundABlockedRow) {
  // A wall of stationary packets occupies the row ahead; the adaptive
  // packet must sidestep north instead of waiting forever.
  Micro m("adaptive-alternate", /*k=*/1);
  const PacketId p = m.add(0, 0, 4, 4);
  // Blockers sit at their own destinations' neighbours so they move once
  // then park... simpler: blockers with far destinations that are
  // themselves blocked by the mesh edge pattern. Use mutual blockers:
  for (std::int32_t c = 1; c <= 3; ++c) m.add(c, 0, c, 7);  // northbound
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  const auto path = m.path(p);
  // The adaptive packet's path must contain at least one north move before
  // column 4 (it cannot have marched straight east through the blockers
  // at k = 1 in step 1).
  bool sidestep = false;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const Coord prev = m.mesh.coord_of(path[i - 1]);
    const Coord cur = m.mesh.coord_of(path[i]);
    if (cur.row > prev.row && cur.col < 4) sidestep = true;
  }
  EXPECT_TRUE(sidestep);
}

// ---- west-first ---------------------------------------------------------

TEST(WestFirst, WestLegIsStrictlyFirst) {
  Micro m("west-first");
  const PacketId p = m.add(5, 2, 1, 6);  // needs west then north
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  const auto path = m.path(p);
  // Once a non-west move happens, no west move may follow.
  bool left_west_phase = false;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const Coord prev = m.mesh.coord_of(path[i - 1]);
    const Coord cur = m.mesh.coord_of(path[i]);
    const bool west = cur.col < prev.col;
    if (!west) left_west_phase = true;
    if (left_west_phase) {
      EXPECT_FALSE(west);
    }
  }
}

TEST(WestFirst, PureEastTrafficIsAdaptive) {
  Micro m("west-first", /*k=*/1);
  const PacketId p = m.add(0, 0, 5, 5);
  for (std::int32_t c = 1; c <= 3; ++c) m.add(c, 0, c, 7);
  m.run();
  EXPECT_TRUE(m.engine->all_delivered());
  EXPECT_EQ(std::int64_t(m.path(p).size()) - 1,
            m.mesh.distance(m.mesh.id_of(0, 0), m.mesh.id_of(5, 5)));
}

// ---- farthest-first -----------------------------------------------------

TEST(FarthestFirst, FartherPacketWinsTheLink) {
  Micro m("farthest-first");
  const PacketId nearp = m.add(0, 0, 3, 0);
  const PacketId farp = m.add(0, 0, 7, 0);
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  ASSERT_FALSE(m.trace.events().empty());
  EXPECT_EQ(m.trace.events()[0].packet, farp);
  EXPECT_GE(m.engine->packet(nearp).delivered_at, 4);
}

// ---- bounded-dimension-order (Theorem 15) -------------------------------

TEST(BoundedDimensionOrder, StraightBeatsTurning) {
  // A column packet moving straight north and a row packet wanting to turn
  // north at the same node: straight has priority (§5 proof).
  Micro m("bounded-dimension-order", /*k=*/2);
  // Straight packet: starts south of node (3,2), heading north through it.
  const PacketId straight = m.add(3, 0, 3, 7);
  // Turner: starts west, its destination column is 3; it turns at (3,2)...
  const PacketId turner = m.add(0, 2, 3, 7 - 1);
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  // Both delivered; the straight packet was never delayed: its latency is
  // exactly its distance.
  EXPECT_EQ(m.engine->packet(straight).delivered_at,
            m.mesh.distance(m.mesh.id_of(3, 0), m.mesh.id_of(3, 7)));
  (void)turner;
}

TEST(BoundedDimensionOrder, RowQueueRefusalBlocksSender) {
  // k = 1: a parked row packet fills the W-queue of its node; an eastbound
  // packet behind it must wait (acceptance refused), never overflowing.
  Micro m("bounded-dimension-order", /*k=*/1);
  const PacketId parked = m.add(3, 0, 5, 5);   // will move on
  const PacketId chaser = m.add(0, 0, 7, 0);   // chases through (3,0)
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  EXPECT_LE(m.engine->max_occupancy_seen(), 1);
  (void)parked;
  (void)chaser;
}

// ---- emps (Even–Medina–Patt-Shamir online grid router) -------------------

TEST(Emps, FarthestToGoWinsTheLine) {
  // Line-routing discipline: on a shared row link the packet with the
  // farther remaining row distance goes first.
  Micro m("emps");
  const PacketId nearp = m.add(0, 0, 3, 0);
  const PacketId farp = m.add(0, 0, 7, 0);
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  ASSERT_FALSE(m.trace.events().empty());
  EXPECT_EQ(m.trace.events()[0].packet, farp);
  EXPECT_GE(m.engine->packet(nearp).delivered_at, 4);
}

TEST(Emps, ContinuingBeatsEntering) {
  // A packet already travelling north outranks one turning into the column
  // at the same node, whatever their distances — the per-dimension
  // in-transit priority of the EMPS phase structure.
  Micro m("emps", /*k=*/2);
  const PacketId straight = m.add(3, 0, 3, 7);  // north through (3,2)
  const PacketId turner = m.add(1, 2, 3, 6);    // turns north at (3,2)
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  EXPECT_EQ(m.engine->packet(straight).delivered_at,
            m.mesh.distance(m.mesh.id_of(3, 0), m.mesh.id_of(3, 7)));
  (void)turner;
}

TEST(Emps, RefusesOverfullInlinkQueue) {
  // k = 1 per-inlink queues with capacity-checked acceptance: occupancy
  // never exceeds 1 even under a row convoy.
  Micro m("emps", /*k=*/1);
  m.add(0, 0, 7, 0);
  m.add(1, 0, 6, 0);
  m.add(2, 0, 7, 1);
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  EXPECT_LE(m.engine->max_occupancy_seen(), 1);
}

// ---- stray (nonminimal, §5) ----------------------------------------------

TEST(Stray, ZeroDeltaIsMinimal) {
  auto algo = make_algorithm("stray-0");
  EXPECT_TRUE(algo->minimal());
  EXPECT_EQ(algo->max_stray(), 0);
}

TEST(Stray, DeflectsOutOfAHeadOnDeadlock) {
  // Two head-on packets with k = 1 deadlock every minimal central-queue
  // router (see CentralQueueDeadlock); stray-1 escapes by deflecting.
  Micro minimal_router("dimension-order", /*k=*/1);
  minimal_router.add(2, 2, 5, 2);
  minimal_router.add(3, 2, 0, 2);
  minimal_router.run(3000);
  EXPECT_FALSE(minimal_router.engine->all_delivered());

  Micro stray_router("stray-1", /*k=*/1);
  stray_router.add(2, 2, 5, 2);
  stray_router.add(3, 2, 0, 2);
  stray_router.run(3000);
  EXPECT_TRUE(stray_router.engine->all_delivered());
}

TEST(Stray, EngineRejectsExcessStray) {
  // A packet that tries to leave the rectangle by more than δ is an
  // engine-level violation. Force it with a malicious δ-lying router: we
  // simulate by running stray-1 and asserting the engine accepted the run
  // (positive control), then check the validation path via a hand-rolled
  // algorithm.
  class Defector : public Algorithm {
   public:
    std::string name() const override { return "defector"; }
    bool minimal() const override { return false; }
    int max_stray() const override { return 1; }
    void plan_out(Sim& e, NodeId u, OutPlan& plan) override {
      // Always push the packet north regardless of its rectangle.
      if (!e.packets_at(u).empty() &&
          e.mesh().neighbor(u, Dir::North) != kInvalidNode)
        plan.schedule(Dir::North, e.packets_at(u)[0]);
    }
    void plan_in(Sim&, NodeId, std::span<const Offer> offers,
                 InPlan& plan) override {
      for (std::size_t i = 0; i < offers.size(); ++i) plan.accept[i] = true;
    }
  };
  const Mesh mesh = Mesh::square(8);
  Defector algo;
  Engine::Config config;
  config.queue_capacity = 4;
  Engine e(mesh, config, algo);
  e.add_packet(mesh.id_of(0, 0), mesh.id_of(5, 0));  // pure east rectangle
  e.prepare();
  e.step_once();  // row 1 — within δ=1
  EXPECT_THROW(e.step_once(), InvariantViolation);  // row 2 — beyond δ
}

// ---- greedy-match --------------------------------------------------------

TEST(GreedyMatch, SaturatesMultipleOutlinks) {
  // Four packets with disjoint profitable directions all leave in step 1.
  Micro m("greedy-match");
  m.add(3, 3, 6, 3);
  m.add(3, 3, 0, 3);
  m.add(3, 3, 3, 6);
  m.add(3, 3, 3, 0);
  m.run();
  ASSERT_TRUE(m.engine->all_delivered());
  int first_step_moves = 0;
  for (const TraceEvent& ev : m.trace.events())
    if (ev.kind == TraceEventKind::Move && ev.step == 1) ++first_step_moves;
  EXPECT_EQ(first_step_moves, 4);
}

}  // namespace
}  // namespace mr
