// Fault-injection tests for the paper-invariant oracles (check/oracles.hpp):
// each oracle must demonstrably FIRE when fed a corrupted configuration or
// digest, and stay silent on a legal one. A test-local Sim subclass builds
// arbitrary (including illegal) network states directly, bypassing both
// engines, so the oracles are exercised as independent checkers rather than
// as echoes of engine-side validation.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "check/fastroute_oracle.hpp"
#include "check/oracles.hpp"
#include "core/assert.hpp"
#include "lower_bound/classes.hpp"
#include "sim/trace.hpp"
#include "topo/mesh.hpp"

namespace mr {
namespace {

/// A Sim whose state the test sets up by hand — legal or corrupted.
class FakeSim : public Sim {
 public:
  FakeSim(const Mesh& mesh, int k, QueueLayout layout)
      : Sim(mesh, k, layout, /*masks_cached=*/false) {}

  PacketId add(NodeId source, NodeId dest) {
    return register_packet(source, dest, 0);
  }
  /// Places p at node u with no validation whatsoever.
  void place(PacketId p, NodeId u, QueueTag tag = kCentralQueue) {
    packets_[p].location = u;
    packets_[p].queue = tag;
    node_packets_.push_back(u, p);
  }
  void set_location(PacketId p, NodeId u) { packets_[p].location = u; }
  void set_dest(PacketId p, NodeId d) { packets_[p].dest = d; }
  void set_source(PacketId p, NodeId s) { packets_[p].source = s; }
  void mark_delivered(PacketId p, Step t) {
    packets_[p].delivered_at = t;
    packets_[p].location = kInvalidNode;
  }

  using Sim::occupancy;
  int occupancy(NodeId u, QueueTag tag) const override {
    int count = 0;
    for (PacketId p : node_packets_.at(u))
      if (packets_[p].queue == tag) ++count;
    return count;
  }
  std::span<const NodeId> active_nodes() const override { return {}; }
  void exchange_destinations(PacketId a, PacketId b) override {
    std::swap(packets_[a].dest, packets_[b].dest);
    ++exchange_count_;
  }
};

/// Runs f and returns the InvariantViolation message, or "" if none threw.
template <typename F>
std::string violation(F&& f) {
  try {
    f();
  } catch (const InvariantViolation& e) {
    return e.what();
  }
  return {};
}

StepDigest digest_at(Step t, std::span<const MoveRecord> moves = {}) {
  StepDigest d;
  d.step = t;
  d.moves = moves;
  return d;
}

// --- QueueBoundOracle ----------------------------------------------------

TEST(QueueBoundOracle, SilentOnLegalConfiguration) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  sim.place(sim.add(0, 5), 0);
  sim.place(sim.add(1, 5), 0);
  QueueBoundOracle oracle;
  EXPECT_EQ(violation([&] { oracle.on_step(sim, digest_at(1)); }), "");
}

TEST(QueueBoundOracle, FiresOnOverfullCentralQueue) {
  FakeSim sim(Mesh::square(4), 1, QueueLayout::Central);
  sim.place(sim.add(0, 5), 0);
  sim.place(sim.add(1, 5), 0);  // second packet in a k=1 queue
  QueueBoundOracle oracle;
  const std::string msg = violation([&] { oracle.on_step(sim, digest_at(1)); });
  EXPECT_NE(msg.find("[oracle:queue-bound]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("> k=1"), std::string::npos) << msg;
}

TEST(QueueBoundOracle, FiresOnOverfullInlinkQueue) {
  FakeSim sim(Mesh::square(4), 1, QueueLayout::PerInlink);
  sim.place(sim.add(0, 5), 0, /*tag=*/2);
  sim.place(sim.add(1, 5), 0, /*tag=*/2);  // same inlink queue, k=1
  QueueBoundOracle oracle;
  const std::string msg = violation([&] { oracle.on_step(sim, digest_at(1)); });
  EXPECT_NE(msg.find("[oracle:queue-bound]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("inlink queue 2"), std::string::npos) << msg;
}

TEST(QueueBoundOracle, SilentOnSpreadInlinkQueues) {
  FakeSim sim(Mesh::square(4), 1, QueueLayout::PerInlink);
  sim.place(sim.add(0, 5), 0, /*tag=*/1);
  sim.place(sim.add(1, 5), 0, /*tag=*/2);  // different queues: legal
  QueueBoundOracle oracle;
  EXPECT_EQ(violation([&] { oracle.on_step(sim, digest_at(1)); }), "");
}

TEST(QueueBoundOracle, FiresOnLocationDrift) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 5);
  sim.place(p, 0);
  sim.set_location(p, 3);  // queued at 0 but claims to sit at 3
  QueueBoundOracle oracle;
  const std::string msg = violation([&] { oracle.on_step(sim, digest_at(1)); });
  EXPECT_NE(msg.find("records location 3"), std::string::npos) << msg;
}

TEST(QueueBoundOracle, FiresOnDeliveredPacketStillQueued) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 5);
  sim.place(p, 0);
  sim.mark_delivered(p, 1);
  sim.set_location(p, 0);  // keep location consistent; delivered is the fault
  QueueBoundOracle oracle;
  const std::string msg = violation([&] { oracle.on_step(sim, digest_at(1)); });
  EXPECT_NE(msg.find("delivered packet"), std::string::npos) << msg;
}

TEST(QueueBoundOracle, FiresOnOccupancyCounterDrift) {
  // A sim whose occupancy accessor disagrees with its actual queues — the
  // bug class the cross-check exists for (a drifted incremental counter).
  class DriftingSim : public FakeSim {
   public:
    using FakeSim::FakeSim;
    using FakeSim::occupancy;
    int occupancy(NodeId, QueueTag) const override { return 0; }
  };
  DriftingSim sim(Mesh::square(4), 2, QueueLayout::PerInlink);
  sim.place(sim.add(0, 5), 0, /*tag=*/1);
  QueueBoundOracle oracle;
  const std::string msg = violation([&] { oracle.on_step(sim, digest_at(1)); });
  EXPECT_NE(msg.find("reports occupancy 0"), std::string::npos) << msg;
}

// --- LinkCapacityOracle --------------------------------------------------

TEST(LinkCapacityOracle, SilentOnLegalMoves) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 5);
  sim.place(p, 1);  // post-step position after hopping 0 → east → 1
  const std::vector<MoveRecord> moves = {{p, 0, 1, Dir::East, false}};
  LinkCapacityOracle oracle;
  EXPECT_EQ(violation([&] { oracle.on_step(sim, digest_at(1, moves)); }), "");
}

TEST(LinkCapacityOracle, FiresOnDoubleBookedLink) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId a = sim.add(0, 5);
  const PacketId b = sim.add(0, 6);
  sim.place(a, 1);
  sim.place(b, 1);
  // Both packets cross link 0→east in the same step.
  const std::vector<MoveRecord> moves = {{a, 0, 1, Dir::East, false},
                                         {b, 0, 1, Dir::East, false}};
  LinkCapacityOracle oracle;
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("[oracle:link-capacity]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("carried two packets"), std::string::npos) << msg;
}

TEST(LinkCapacityOracle, FiresOnNonAdjacentHop) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 15);
  sim.place(p, 5);
  // 0 → 5 is a diagonal, not the east neighbour (1).
  const std::vector<MoveRecord> moves = {{p, 0, 5, Dir::East, false}};
  LinkCapacityOracle oracle;
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("does not land at"), std::string::npos) << msg;
}

TEST(LinkCapacityOracle, FiresOnPacketMovingTwice) {
  // Two delivering hops of the same packet over two different links: the
  // per-move consistency checks pass (delivered packets are out of the
  // network), so the one-move-per-packet check is what fires.
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 1);
  sim.mark_delivered(p, 1);
  const std::vector<MoveRecord> moves = {{p, 0, 1, Dir::East, true},
                                         {p, 5, 1, Dir::South, true}};
  LinkCapacityOracle oracle;
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("moved twice"), std::string::npos) << msg;
}

TEST(LinkCapacityOracle, FiresOnDeliveredFlagWithPacketStillQueued) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 1);
  sim.place(p, 1);  // digest says delivered, packet still sits at node 1
  const std::vector<MoveRecord> moves = {{p, 0, 1, Dir::East, true}};
  LinkCapacityOracle oracle;
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("left it in the network"), std::string::npos) << msg;
}

TEST(LinkCapacityOracle, FiresOnDigestPositionMismatch) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 5);
  sim.place(p, 2);  // digest records arrival at 1, packet sits at 2
  const std::vector<MoveRecord> moves = {{p, 0, 1, Dir::East, false}};
  LinkCapacityOracle oracle;
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("but sits at 2"), std::string::npos) << msg;
}

// The oracle's per-step link and packet tables are stamped with a step
// epoch instead of being cleared; these cases pin that a stamp left by an
// earlier step (or an earlier sim) never reads as "used this step".

TEST(LinkCapacityOracle, FiresOnDoubleBookedLinkAfterLegalSteps) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId a = sim.add(0, 3);
  const PacketId b = sim.add(0, 3);
  const PacketId c = sim.add(0, 7);
  const PacketId f = sim.add(0, 7);
  LinkCapacityOracle oracle;
  // Step 1: a crosses 0→east.
  sim.place(a, 1);
  const std::vector<MoveRecord> step1 = {{a, 0, 1, Dir::East, false}};
  EXPECT_EQ(violation([&] { oracle.on_step(sim, digest_at(1, step1)); }), "");
  // Step 2: a moves again and b takes the link a used in step 1 — legal.
  sim.set_location(a, 2);
  sim.place(b, 1);
  const std::vector<MoveRecord> step2 = {{a, 1, 2, Dir::East, false},
                                         {b, 0, 1, Dir::East, false}};
  EXPECT_EQ(violation([&] { oracle.on_step(sim, digest_at(2, step2)); }), "");
  // Step 3: c and f both cross 0→east.
  sim.place(c, 1);
  sim.place(f, 1);
  const std::vector<MoveRecord> step3 = {{c, 0, 1, Dir::East, false},
                                         {f, 0, 1, Dir::East, false}};
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(3, step3)); });
  EXPECT_NE(msg.find("carried two packets in step 3"), std::string::npos)
      << msg;
}

TEST(LinkCapacityOracle, ResizesWhenReusedOnALargerSim) {
  LinkCapacityOracle oracle;
  {
    FakeSim small(Mesh::square(4), 2, QueueLayout::Central);
    const PacketId p = small.add(0, 3);
    small.place(p, 1);
    const std::vector<MoveRecord> moves = {{p, 0, 1, Dir::East, false}};
    EXPECT_EQ(violation([&] { oracle.on_step(small, digest_at(1, moves)); }),
              "");
  }
  // A larger mesh and more packets: node and packet ids beyond the first
  // sim's tables, plus the ids the first sim stamped.
  FakeSim large(Mesh::square(9), 2, QueueLayout::Central);
  std::vector<PacketId> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(large.add(0, 80));
  std::vector<MoveRecord> moves;
  moves.push_back({ids[0], 0, 1, Dir::East, false});
  large.place(ids[0], 1);
  for (int i = 1; i < 50; ++i) {
    // Packet i crosses the north link of node 9 + i (rows 1–6).
    const NodeId from = 9 + i;
    large.place(ids[static_cast<std::size_t>(i)], from + 9);
    moves.push_back({ids[static_cast<std::size_t>(i)], from, from + 9,
                     Dir::North, false});
  }
  EXPECT_EQ(violation([&] { oracle.on_step(large, digest_at(1, moves)); }), "");
  // The grown tables still catch a repeat among the new ids.
  const std::vector<MoveRecord> twice = {
      {ids[49], 79, 80, Dir::East, true}, {ids[49], 71, 80, Dir::North, true}};
  large.mark_delivered(ids[49], 2);
  const std::string msg =
      violation([&] { oracle.on_step(large, digest_at(2, twice)); });
  EXPECT_NE(msg.find("moved twice in step 2"), std::string::npos) << msg;
}

TEST(LinkCapacityOracle, FiresOnUnknownPacketId) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  sim.place(sim.add(0, 5), 1);
  const std::vector<MoveRecord> moves = {{7, 0, 1, Dir::East, false}};
  LinkCapacityOracle oracle;
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("unknown packet 7"), std::string::npos) << msg;
}

TEST(LinkCapacityOracle, FiresOnDoubleBookedTorusWrapLink) {
  const Mesh torus = Mesh::square(4, /*torus=*/true);
  FakeSim sim(torus, 2, QueueLayout::Central);
  const PacketId a = sim.add(3, 1);
  const PacketId b = sim.add(3, 2);
  sim.place(a, 0);
  sim.place(b, 0);
  // Both packets cross the wrap link 3→east→0 in the same step.
  ASSERT_EQ(torus.neighbor(3, Dir::East), 0);
  const std::vector<MoveRecord> moves = {{a, 3, 0, Dir::East, false},
                                         {b, 3, 0, Dir::East, false}};
  LinkCapacityOracle oracle;
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("[oracle:link-capacity]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("carried two packets"), std::string::npos) << msg;
}

// --- ProfitableMoveOracle ------------------------------------------------

TEST(ProfitableMoveOracle, SilentOnProfitableHop) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 3);
  sim.place(p, 1);
  const std::vector<MoveRecord> moves = {{p, 0, 1, Dir::East, false}};
  ProfitableMoveOracle oracle(/*minimal=*/true);
  EXPECT_EQ(violation([&] { oracle.on_step(sim, digest_at(1, moves)); }), "");
}

TEST(ProfitableMoveOracle, FiresOnDistanceIncreasingHop) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(1, 0);  // destination is west of the packet
  sim.place(p, 2);
  const std::vector<MoveRecord> moves = {{p, 1, 2, Dir::East, false}};
  ProfitableMoveOracle oracle(/*minimal=*/true);
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("[oracle:minimal-move]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("does not reduce the distance"), std::string::npos)
      << msg;
}

TEST(ProfitableMoveOracle, FiresOutsideStrayRectangle) {
  const Mesh mesh = Mesh::square(6);
  FakeSim sim(mesh, 2, QueueLayout::Central);
  // Source (0,0), dest (1,0): the δ=1 expanded rectangle spans cols 0..2.
  const PacketId p = sim.add(mesh.id_of(0, 0), mesh.id_of(1, 0));
  const NodeId from = mesh.id_of(2, 0), to = mesh.id_of(3, 0);
  sim.place(p, to);
  const std::vector<MoveRecord> moves = {{p, from, to, Dir::East, false}};
  ProfitableMoveOracle oracle(/*minimal=*/false, /*max_stray=*/1);
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("strayed more than delta=1"), std::string::npos) << msg;
}

TEST(ProfitableMoveOracle, SilentInsideStrayRectangle) {
  const Mesh mesh = Mesh::square(6);
  FakeSim sim(mesh, 2, QueueLayout::Central);
  const PacketId p = sim.add(mesh.id_of(0, 0), mesh.id_of(1, 0));
  const NodeId from = mesh.id_of(1, 0), to = mesh.id_of(2, 0);
  sim.place(p, to);  // col 2 = max(s,t).col + δ: on the boundary, legal
  const std::vector<MoveRecord> moves = {{p, from, to, Dir::East, false}};
  ProfitableMoveOracle oracle(/*minimal=*/false, /*max_stray=*/1);
  EXPECT_EQ(violation([&] { oracle.on_step(sim, digest_at(1, moves)); }), "");
}

// --- ExchangeConsistencyOracle -------------------------------------------

TEST(ExchangeConsistencyOracle, FiresOnDestChangeWithoutExchange) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 5);
  sim.place(p, 0);
  ExchangeConsistencyOracle oracle;
  oracle.on_prepare(sim, digest_at(0));
  sim.set_dest(p, 6);  // mutated outside an exchange
  const std::string msg = violation([&] { oracle.on_step(sim, digest_at(1)); });
  EXPECT_NE(msg.find("[oracle:exchange]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("no exchanges"), std::string::npos) << msg;
}

TEST(ExchangeConsistencyOracle, FiresOnSourceMutation) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 5);
  sim.place(p, 0);
  ExchangeConsistencyOracle oracle;
  oracle.on_prepare(sim, digest_at(0));
  sim.set_source(p, 2);  // sources are immutable, always
  StepDigest d = digest_at(1);
  d.exchanges = 1;  // even in a step with exchanges
  const std::string msg = violation([&] { oracle.on_step(sim, d); });
  EXPECT_NE(msg.find("source of packet"), std::string::npos) << msg;
}

TEST(ExchangeConsistencyOracle, FiresOnInventedDestination) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 5);
  const PacketId q = sim.add(1, 6);
  sim.place(p, 0);
  sim.place(q, 1);
  ExchangeConsistencyOracle oracle;
  oracle.on_prepare(sim, digest_at(0));
  sim.set_dest(p, 9);  // 9 was nobody's destination: not a permutation
  StepDigest d = digest_at(1);
  d.exchanges = 1;
  const std::string msg = violation([&] { oracle.on_step(sim, d); });
  EXPECT_NE(msg.find("destination multiset"), std::string::npos) << msg;
}

TEST(ExchangeConsistencyOracle, SilentOnGenuineExchange) {
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const PacketId p = sim.add(0, 5);
  const PacketId q = sim.add(1, 6);
  sim.place(p, 0);
  sim.place(q, 1);
  ExchangeConsistencyOracle oracle;
  oracle.on_prepare(sim, digest_at(0));
  sim.exchange_destinations(p, q);
  StepDigest d = digest_at(1);
  d.exchanges = 1;
  EXPECT_EQ(violation([&] { oracle.on_step(sim, d); }), "");
}

// --- BoxEscapeOracle -----------------------------------------------------

// Geometry: 12×12, cn = 4 ⇒ γ = 2, line(i) = 2 + i; dn = 3; two classes.
// An N_2 packet starts inside the 1-box and is destined for column
// line(2) = 4 strictly north of row 4.
struct BoxFixture {
  Mesh mesh = Mesh::square(12);
  MainGeometry geo{12, 4, 2};
  std::int32_t dn = 3;
};

TEST(BoxEscapeOracle, FiresOnEarlyBoxEscape) {
  BoxFixture fx;
  FakeSim sim(fx.mesh, 2, QueueLayout::Central);
  const NodeId src = fx.mesh.id_of(0, 0);
  const NodeId dst = fx.mesh.id_of(4, 6);  // N_2-packet
  const PacketId p = sim.add(src, dst);
  // Hop from (4,4) (inside the 2-box) to (5,4) (outside) at step 1, but
  // Lemma 1 forbids class-2 escapes before step (2−1)·dn = 3.
  const NodeId from = fx.mesh.id_of(4, 4), to = fx.mesh.id_of(5, 4);
  sim.place(p, to);
  const std::vector<MoveRecord> moves = {{p, from, to, Dir::East, false}};
  BoxEscapeOracle oracle(fx.geo, fx.dn, /*class_packet_count=*/1);
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("Lemma 1 violated"), std::string::npos) << msg;
}

TEST(BoxEscapeOracle, FiresOnDoubleEscapeInOneStep) {
  BoxFixture fx;
  FakeSim sim(fx.mesh, 2, QueueLayout::Central);
  // Two N_1-packets (dest column line(1) = 3, north of row 3) both leave
  // the 1-box in step 1 — Lemma 2 allows at most one per class per step
  // and fires while processing the second escaping move.
  const PacketId a = sim.add(fx.mesh.id_of(0, 0), fx.mesh.id_of(3, 7));
  const PacketId b = sim.add(fx.mesh.id_of(1, 0), fx.mesh.id_of(3, 8));
  const NodeId from_a = fx.mesh.id_of(3, 3), to_a = fx.mesh.id_of(3, 4);
  const NodeId from_b = fx.mesh.id_of(2, 3), to_b = fx.mesh.id_of(2, 4);
  sim.place(a, to_a);
  sim.place(b, to_b);
  const std::vector<MoveRecord> moves = {{a, from_a, to_a, Dir::North, false},
                                         {b, from_b, to_b, Dir::North, false}};
  BoxEscapeOracle oracle(fx.geo, fx.dn, /*class_packet_count=*/2);
  const std::string msg =
      violation([&] { oracle.on_step(sim, digest_at(1, moves)); });
  EXPECT_NE(msg.find("Lemma 2 violated"), std::string::npos) << msg;
}

TEST(BoxEscapeOracle, FiresOnConfinementBreach) {
  BoxFixture fx;
  FakeSim sim(fx.mesh, 2, QueueLayout::Central);
  // Step 1 ⇒ window w = 0, so classes ≥ 2 must still sit in the 0-box
  // (cols/rows 0..2). Park an N_2-packet at (5,0) with no move at all.
  const PacketId p = sim.add(fx.mesh.id_of(0, 0), fx.mesh.id_of(4, 6));
  sim.place(p, fx.mesh.id_of(5, 0));
  BoxEscapeOracle oracle(fx.geo, fx.dn, /*class_packet_count=*/1);
  const std::string msg = violation([&] { oracle.on_step(sim, digest_at(1)); });
  EXPECT_NE(msg.find("Lemma 5/6 violated"), std::string::npos) << msg;
}

TEST(BoxEscapeOracle, SilentOnConfinedPackets) {
  BoxFixture fx;
  FakeSim sim(fx.mesh, 2, QueueLayout::Central);
  const PacketId p = sim.add(fx.mesh.id_of(0, 0), fx.mesh.id_of(4, 6));
  sim.place(p, fx.mesh.id_of(1, 1));  // inside the 0-box: all lemmas hold
  BoxEscapeOracle oracle(fx.geo, fx.dn, /*class_packet_count=*/1);
  EXPECT_EQ(violation([&] { oracle.on_step(sim, digest_at(1)); }), "");
  EXPECT_EQ(oracle.max_escapes_per_step(), 0);
}

TEST(BoxEscapeOracle, FiresOnUnmovedPacketClassedByAnExchange) {
  // Between steps the oracle checks only moved packets, but an exchange can
  // put an unmoved packet in breach: p waits at (5,0) outside the 0-box,
  // unclassed, until step 2 hands it q's N_2 destination. Neither packet
  // moves; the breach is reported in step 2, the step of the exchange.
  BoxFixture fx;
  FakeSim sim(fx.mesh, 2, QueueLayout::Central);
  const PacketId p = sim.add(fx.mesh.id_of(0, 0), fx.mesh.id_of(1, 1));
  const PacketId q = sim.add(fx.mesh.id_of(0, 1), fx.mesh.id_of(4, 6));
  sim.place(p, fx.mesh.id_of(5, 0));
  sim.place(q, fx.mesh.id_of(1, 1));
  BoxEscapeOracle oracle(fx.geo, fx.dn, /*class_packet_count=*/2);
  EXPECT_EQ(violation([&] { oracle.on_step(sim, digest_at(1)); }), "");
  sim.exchange_destinations(p, q);
  StepDigest d = digest_at(2);
  d.exchanges = 1;
  const std::string msg = violation([&] { oracle.on_step(sim, d); });
  EXPECT_NE(msg.find("Lemma 5/6 violated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at step 2"), std::string::npos) << msg;
}

TEST(BoxEscapeOracle, ScansAllPacketsOnTheFirstStepAndAfterARewind) {
  BoxFixture fx;
  {
    // First step seen is step 2: the unmoved N_2-packet at (5,0) is
    // reported there, as a scan on every step would.
    FakeSim sim(fx.mesh, 2, QueueLayout::Central);
    const PacketId p = sim.add(fx.mesh.id_of(0, 0), fx.mesh.id_of(4, 6));
    sim.place(p, fx.mesh.id_of(5, 0));
    BoxEscapeOracle oracle(fx.geo, fx.dn, /*class_packet_count=*/1);
    const std::string msg =
        violation([&] { oracle.on_step(sim, digest_at(2)); });
    EXPECT_NE(msg.find("Lemma 5/6 violated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("at step 2"), std::string::npos) << msg;
  }
  {
    // A step that does not follow the last one seen (a restore rewound the
    // run to another configuration) is scanned in full.
    FakeSim sim(fx.mesh, 2, QueueLayout::Central);
    const PacketId p = sim.add(fx.mesh.id_of(0, 0), fx.mesh.id_of(4, 6));
    sim.place(p, fx.mesh.id_of(1, 1));
    BoxEscapeOracle oracle(fx.geo, fx.dn, /*class_packet_count=*/1);
    EXPECT_EQ(violation([&] { oracle.on_step(sim, digest_at(3)); }), "");
    sim.set_location(p, fx.mesh.id_of(5, 0));
    const std::string msg =
        violation([&] { oracle.on_step(sim, digest_at(1)); });
    EXPECT_NE(msg.find("Lemma 5/6 violated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("at step 1"), std::string::npos) << msg;
  }
}

// --- DigestHasher --------------------------------------------------------

TEST(DigestHasher, DistinguishesDigestStreams) {
  DigestHasher a, b, c;
  FakeSim sim(Mesh::square(4), 2, QueueLayout::Central);
  const std::vector<MoveRecord> moves = {{0, 0, 1, Dir::East, false}};
  a.on_step(sim, digest_at(1, moves));
  b.on_step(sim, digest_at(1, moves));
  EXPECT_EQ(a.hash(), b.hash());
  c.on_step(sim, digest_at(1));  // same step, no moves
  EXPECT_NE(a.hash(), c.hash());
}

// --- run_trace_oracles ---------------------------------------------------

TEST(TraceOracles, CleanStreamPasses) {
  const Mesh mesh = Mesh::square(4);
  std::vector<Packet> packets(1);
  packets[0].id = 0;
  packets[0].source = 0;
  packets[0].dest = 2;
  const std::vector<TraceEvent> events = {
      {TraceEventKind::Move, 1, 0, 0, 1},
      {TraceEventKind::Move, 2, 0, 1, 2},
      {TraceEventKind::Deliver, 2, 0, 2, 2},
  };
  EXPECT_EQ(run_trace_oracles(events, mesh, packets, 1, QueueLayout::Central),
            "");
}

TEST(TraceOracles, FiresOnDoubleBookedLink) {
  const Mesh mesh = Mesh::square(4);
  std::vector<Packet> packets(2);
  for (std::size_t i = 0; i < 2; ++i) {
    packets[i].id = static_cast<PacketId>(i);
    packets[i].source = 0;
    packets[i].dest = 3;
  }
  const std::vector<TraceEvent> events = {
      {TraceEventKind::Move, 1, 0, 0, 1},
      {TraceEventKind::Move, 1, 1, 0, 1},  // same link, same step
  };
  const std::string msg =
      run_trace_oracles(events, mesh, packets, 2, QueueLayout::Central);
  EXPECT_NE(msg.find("link"), std::string::npos) << msg;
}

TEST(TraceOracles, ReusedLinkInALaterStepPassesAndDoubleMoveFires) {
  const Mesh mesh = Mesh::square(4);
  std::vector<Packet> packets(2);
  for (std::size_t i = 0; i < 2; ++i) {
    packets[i].id = static_cast<PacketId>(i);
    packets[i].source = 0;
    packets[i].dest = 3;
  }
  std::vector<TraceEvent> events = {
      {TraceEventKind::Move, 1, 0, 0, 1},
      {TraceEventKind::Move, 2, 0, 1, 2},
      {TraceEventKind::Move, 2, 1, 0, 1},  // the link packet 0 used at step 1
  };
  EXPECT_EQ(run_trace_oracles(events, mesh, packets, 2, QueueLayout::Central),
            "");
  events.push_back({TraceEventKind::Move, 3, 1, 1, 2});
  events.push_back({TraceEventKind::Move, 3, 1, 1, 5});  // moves again
  EXPECT_EQ(run_trace_oracles(events, mesh, packets, 2, QueueLayout::Central),
            "a packet moved twice in step 3");
}

TEST(TraceOracles, FiresOnDoubleBookedTorusWrapLink) {
  const Mesh torus = Mesh::square(4, /*torus=*/true);
  std::vector<Packet> packets(2);
  for (std::size_t i = 0; i < 2; ++i) {
    packets[i].id = static_cast<PacketId>(i);
    packets[i].source = 3;
    packets[i].dest = 1;
  }
  const std::vector<TraceEvent> events = {
      {TraceEventKind::Move, 1, 0, 3, 0},
      {TraceEventKind::Move, 1, 1, 3, 0},  // same wrap link, same step
  };
  EXPECT_EQ(run_trace_oracles(events, torus, packets, 2, QueueLayout::Central),
            "a directed link carried two packets in step 1");
}

TEST(TraceOracles, FiresOnQueueOverflow) {
  const Mesh mesh = Mesh::square(4);
  // Three packets squeezed into node 1 with k=2: two arrivals on top of
  // one injected resident.
  std::vector<Packet> packets(3);
  packets[0].id = 0;
  packets[0].source = 1;
  packets[0].dest = 3;
  packets[1].id = 1;
  packets[1].source = 0;
  packets[1].dest = 3;
  packets[2].id = 2;
  packets[2].source = 5;
  packets[2].dest = 3;
  const std::vector<TraceEvent> events = {
      {TraceEventKind::Move, 1, 1, 0, 1},
      {TraceEventKind::Move, 1, 2, 5, 1},
  };
  const std::string msg =
      run_trace_oracles(events, mesh, packets, 2, QueueLayout::Central);
  EXPECT_NE(msg.find("queue bound violated"), std::string::npos) << msg;
}

TEST(TraceOracles, FiresOnTeleport) {
  const Mesh mesh = Mesh::square(4);
  std::vector<Packet> packets(1);
  packets[0].id = 0;
  packets[0].source = 0;
  packets[0].dest = 15;
  const std::vector<TraceEvent> events = {
      {TraceEventKind::Move, 1, 0, 0, 1},
      {TraceEventKind::Move, 2, 0, 2, 3},  // departs from 2, but sat at 1
  };
  const std::string msg =
      run_trace_oracles(events, mesh, packets, 1, QueueLayout::Central);
  EXPECT_FALSE(msg.empty());
}

TEST(TraceOracles, PerInlinkCountsQueuesSeparately) {
  // Node 5 of a 4×4 mesh receives two packets in one step from different
  // inlinks: a per-inlink layout with k=1 is fine, a central one is not.
  const Mesh mesh = Mesh::square(4);
  std::vector<Packet> packets(2);
  packets[0].id = 0;
  packets[0].source = 4;
  packets[0].dest = 7;
  packets[1].id = 1;
  packets[1].source = 1;
  packets[1].dest = 13;
  const std::vector<TraceEvent> events = {
      {TraceEventKind::Move, 1, 0, 4, 5},
      {TraceEventKind::Move, 1, 1, 1, 5},
  };
  EXPECT_EQ(
      run_trace_oracles(events, mesh, packets, 1, QueueLayout::PerInlink), "");
  const std::string msg =
      run_trace_oracles(events, mesh, packets, 1, QueueLayout::Central);
  EXPECT_NE(msg.find("queue bound violated"), std::string::npos) << msg;
}

// --- FastRouteOracle -----------------------------------------------------

// n = 27: one tile, strips of height d = 1 (a strip is a row). Segments
// 0–3 are the NE class's vertical March, Sort&Smooth(even),
// Sort&Smooth(odd) and Balance, 4–7 its horizontal phase, 8 its base case.
// Every packet below is NE (destination north, not west), so a packet at
// row r with destination row r + 3 or more is active, staged for row
// r' = destination row − 3.
struct FastRouteFixture {
  Mesh mesh = Mesh::square(27);
  FakeSim sim{mesh, 834, QueueLayout::Central};
  FastRouteOracle oracle{27, FastRouteAlgorithm::Options::baseline()};

  PacketId packet(Coord at, Coord dest) {
    const PacketId p = sim.add(mesh.id_of(at.col, at.row),
                               mesh.id_of(dest.col, dest.row));
    sim.place(p, mesh.id_of(at.col, at.row));
    return p;
  }
  const FastRouteAlgorithm::Segment& segment(std::size_t i) const {
    return oracle.schedule().segments[i];
  }
  /// Feeds empty digests for steps (from, to]; returns the first
  /// violation message, or "".
  std::string idle(Step from, Step to) {
    return violation([&] {
      for (Step t = from + 1; t <= to; ++t) oracle.on_step(sim, digest_at(t));
    });
  }
};

TEST(FastRouteOracle, SilentOnAnInactivePacketDeliveredInTheBaseCase) {
  FastRouteFixture fx;
  // Two rows short of its destination: participates, never active.
  const PacketId p = fx.packet({5, 8}, {5, 10});
  fx.oracle.on_prepare(fx.sim, digest_at(0));
  const Step t = fx.segment(8).start + 2;
  EXPECT_EQ(fx.idle(0, t - 1), "");
  fx.sim.mark_delivered(p, t);
  const NodeId from = fx.mesh.id_of(5, 8);
  const std::vector<MoveRecord> hop = {
      {p, from, fx.mesh.id_of(5, 10), Dir::North, /*delivered=*/true}};
  EXPECT_EQ(violation([&] { fx.oracle.on_step(fx.sim, digest_at(t, hop)); }),
            "");
  EXPECT_EQ(fx.idle(t, fx.oracle.schedule().length), "");
  EXPECT_EQ(fx.oracle.stats()[8].moves, 1);
  EXPECT_EQ(fx.oracle.stats()[8].last_move_offset, 2);
}

TEST(FastRouteOracle, FiresOnASkippedMarchLemma29) {
  FastRouteFixture fx;
  fx.packet({5, 2}, {5, 10});  // staging row 7; the March never moves it
  fx.oracle.on_prepare(fx.sim, digest_at(0));
  const std::string msg = fx.idle(0, fx.segment(0).end());
  EXPECT_NE(msg.find("[oracle:fastroute] Lemma 29 violated"),
            std::string::npos)
      << msg;
}

TEST(FastRouteOracle, FiresOnASkippedSortAndSmoothLemma30) {
  FastRouteFixture fx;
  fx.packet({5, 7}, {5, 10});  // staged; even destination strip
  fx.packet({9, 8}, {9, 11});  // staged; odd destination strip
  fx.oracle.on_prepare(fx.sim, digest_at(0));
  EXPECT_EQ(fx.idle(0, fx.segment(0).end()), "");  // March: both staged
  const std::string msg =
      fx.idle(fx.segment(0).end(), fx.segment(1).end());
  EXPECT_NE(msg.find("Lemma 30 violated (even substep)"), std::string::npos)
      << msg;

  FastRouteFixture odd;
  odd.packet({9, 8}, {9, 11});
  odd.oracle.on_prepare(odd.sim, digest_at(0));
  const std::string odd_msg = odd.idle(0, odd.segment(2).end());
  EXPECT_NE(odd_msg.find("Lemma 30 violated (odd substep)"),
            std::string::npos)
      << odd_msg;
}

TEST(FastRouteOracle, FiresOnASkippedBalanceLemma31) {
  FastRouteFixture fx;
  std::vector<PacketId> staged;
  for (std::int32_t col : {6, 7, 8}) staged.push_back(fx.packet({5, 7}, {col, 10}));
  fx.oracle.on_prepare(fx.sim, digest_at(0));
  const Step t = fx.segment(1).start + 1;
  EXPECT_EQ(fx.idle(0, t - 1), "");
  // Sort&Smooth(even) stacks all three in one node of row 8 = 10 − 2.
  std::vector<MoveRecord> hops;
  for (PacketId p : staged) {
    fx.sim.set_location(p, fx.mesh.id_of(5, 8));
    hops.push_back({p, fx.mesh.id_of(5, 7), fx.mesh.id_of(5, 8), Dir::North,
                    /*delivered=*/false});
  }
  EXPECT_EQ(violation([&] { fx.oracle.on_step(fx.sim, digest_at(t, hops)); }),
            "");
  // Both substeps end with them in row 8; Balancing never spreads them.
  const std::string msg = fx.idle(t, fx.segment(3).end());
  EXPECT_NE(msg.find("Lemma 24/31 violated: 3 active packets"),
            std::string::npos)
      << msg;
  EXPECT_EQ(fx.oracle.stats()[3].peak_per_node, 3);
}

TEST(FastRouteOracle, FiresOnASkippedBaseCaseLemma32) {
  FastRouteFixture fx;
  fx.packet({5, 8}, {5, 10});  // inactive: only the base case moves it
  fx.oracle.on_prepare(fx.sim, digest_at(0));
  const std::string msg = fx.idle(0, fx.segment(8).end());
  EXPECT_NE(msg.find("Lemma 32 violated"), std::string::npos) << msg;
}

}  // namespace
}  // namespace mr
