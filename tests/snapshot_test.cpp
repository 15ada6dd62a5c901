// Snapshot/restore property tests: a run snapshotted at step t, serialized
// through the meshroute-snapshot/1 wire format and restored must continue
// bit-identically to the uninterrupted run — same fingerprint stream, same
// StepDigest stream, same final counters — for every registry algorithm on
// every topology family and on the sharded engine. Plus negative coverage:
// corrupt wire bytes and mismatched headers fail with the typed
// SnapshotError kinds, never silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/oracles.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"
#include "topo/registry.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

constexpr std::int32_t kN = 6;
constexpr Step kSnapshotStep = 3;
constexpr Step kBudget = 4096;

struct Outcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t tail_digest = 0;  ///< DigestHasher over steps > kSnapshotStep
  Step steps = 0;
  std::size_t delivered = 0;
  std::int64_t total_moves = 0;
  std::uint64_t exchanges = 0;
  int max_occupancy = 0;
};

/// The workload every case routes: a permutation with staggered
/// injections, so future-dated injections are still pending at the
/// snapshot step and the waiting-list machinery is exercised.
Workload staggered_workload(const Topology& topo) {
  Workload w = random_permutation(topo, 42);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i].injected_at = static_cast<Step>(i % 8);
  return w;
}

Engine::Config engine_config(int shards) {
  Engine::Config config;
  config.queue_capacity = 2;
  config.stall_limit = 64;
  config.shards = shards;
  config.threads = shards > 1 ? 2 : 1;
  return config;
}

void run_tail(Engine& engine, Outcome* out) {
  DigestHasher tail;
  engine.add_observer(&tail);
  for (Step t = 0; t < kBudget; ++t)
    if (!engine.step_once()) break;
  out->fingerprint = engine.fingerprint(true);
  out->tail_digest = tail.hash();
  out->steps = engine.step();
  out->delivered = engine.delivered_count();
  out->total_moves = engine.total_moves();
  out->exchanges = engine.exchange_count();
  out->max_occupancy = engine.max_occupancy_seen();
}

/// Uninterrupted run, observing only the post-kSnapshotStep tail.
Outcome run_straight(const std::string& topo_name, const std::string& algo,
                     int shards) {
  const std::unique_ptr<Topology> topo = make_topology(topo_name, kN, kN);
  Engine engine(*topo, engine_config(shards),
                [&] { return make_algorithm(algo); });
  for (const Demand& d : staggered_workload(*topo))
    engine.add_packet(d.source, d.dest, d.injected_at);
  engine.prepare();
  while (engine.step() < kSnapshotStep && engine.step_once()) {
  }
  Outcome out;
  run_tail(engine, &out);
  return out;
}

/// Same run, but snapshotted at kSnapshotStep, round-tripped through the
/// wire format, and restored into a FRESH engine that never saw a packet.
Outcome run_restored(const std::string& topo_name, const std::string& algo,
                     int shards) {
  const std::unique_ptr<Topology> topo = make_topology(topo_name, kN, kN);
  EngineSnapshot snap;
  {
    Engine engine(*topo, engine_config(shards),
                  [&] { return make_algorithm(algo); });
    for (const Demand& d : staggered_workload(*topo))
      engine.add_packet(d.source, d.dest, d.injected_at);
    engine.prepare();
    while (engine.step() < kSnapshotStep && engine.step_once()) {
    }
    snap = parse_snapshot(serialize_snapshot(engine.snapshot()));
  }
  Engine fresh(*topo, engine_config(shards),
               [&] { return make_algorithm(algo); });
  fresh.restore(snap);
  Outcome out;
  run_tail(fresh, &out);
  return out;
}

TEST(Snapshot, RestoredRunsAreBitIdentical) {
  const std::vector<std::string> topologies = {"mesh", "torus", "cmesh-4"};
  for (const std::string& algo : algorithm_names()) {
    for (const std::string& topo : topologies) {
      if (topo == "torus" && !supports_torus(algo)) continue;
      for (const int shards : {1, 4}) {
        SCOPED_TRACE(algo + " on " + topo + " shards=" +
                     std::to_string(shards));
        const Outcome straight = run_straight(topo, algo, shards);
        const Outcome restored = run_restored(topo, algo, shards);
        EXPECT_EQ(restored.fingerprint, straight.fingerprint);
        EXPECT_EQ(restored.tail_digest, straight.tail_digest);
        EXPECT_EQ(restored.steps, straight.steps);
        EXPECT_EQ(restored.delivered, straight.delivered);
        EXPECT_EQ(restored.total_moves, straight.total_moves);
        EXPECT_EQ(restored.exchanges, straight.exchanges);
        EXPECT_EQ(restored.max_occupancy, straight.max_occupancy);
      }
    }
  }
}

// --- wire-format negative paths ------------------------------------------

EngineSnapshot sample_snapshot(const std::string& algo, int shards) {
  const std::unique_ptr<Topology> topo = make_topology("mesh", kN, kN);
  Engine engine(*topo, engine_config(shards),
                [&] { return make_algorithm(algo); });
  for (const Demand& d : staggered_workload(*topo))
    engine.add_packet(d.source, d.dest, d.injected_at);
  engine.prepare();
  while (engine.step() < kSnapshotStep && engine.step_once()) {
  }
  return engine.snapshot();
}

void expect_kind(const std::string& wire, SnapshotError::Kind kind) {
  try {
    (void)parse_snapshot(wire);
    FAIL() << "parse_snapshot accepted corrupt input";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
  }
}

TEST(Snapshot, RejectsBadMagic) {
  std::string wire = serialize_snapshot(sample_snapshot("dimension-order", 1));
  wire[0] = 'X';
  expect_kind(wire, SnapshotError::Kind::Format);
}

TEST(Snapshot, RejectsCorruptPayload) {
  std::string wire = serialize_snapshot(sample_snapshot("dimension-order", 1));
  // Flip one payload byte: the checksum must catch it.
  wire.back() = static_cast<char>(wire.back() ^ 0x5A);
  expect_kind(wire, SnapshotError::Kind::Format);
}

TEST(Snapshot, RejectsTruncatedPayload) {
  std::string wire = serialize_snapshot(sample_snapshot("dimension-order", 1));
  wire.resize(wire.size() - 7);
  expect_kind(wire, SnapshotError::Kind::Format);
}

TEST(Snapshot, RestoreRejectsMismatchedEngine) {
  const EngineSnapshot snap = sample_snapshot("dimension-order", 1);
  const std::unique_ptr<Topology> topo = make_topology("mesh", kN, kN);

  {
    // Different algorithm.
    Engine other(*topo, engine_config(1),
                 [] { return make_algorithm("greedy-match"); });
    try {
      other.restore(snap);
      FAIL() << "restore accepted a foreign algorithm";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::Mismatch) << e.what();
    }
  }
  {
    // Different shard count.
    Engine other(*topo, engine_config(4),
                 [] { return make_algorithm("dimension-order"); });
    try {
      other.restore(snap);
      FAIL() << "restore accepted a foreign shard count";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::Mismatch) << e.what();
    }
  }
  {
    // Different topology family.
    const std::unique_ptr<Topology> torus = make_topology("torus", kN, kN);
    Engine other(*torus, engine_config(1),
                 [] { return make_algorithm("dimension-order"); });
    try {
      other.restore(snap);
      FAIL() << "restore accepted a foreign topology";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::Mismatch) << e.what();
    }
  }
}

TEST(Snapshot, RestoreRejectsInconsistentInjectionState) {
  // Each edit below survives the wire format (the checksum covers the
  // edited bytes) and, if restored, breaks the run: a doubly queued packet
  // trips an invariant check, and a reordered or duplicated pending list
  // stalls it early with packets undelivered. restore() must reject all of
  // them up front and leave the engine as it was.
  const EngineSnapshot good = sample_snapshot("dimension-order", 1);
  const auto cursor = static_cast<std::size_t>(good.injection_cursor);
  ASSERT_GE(good.injections.size(), cursor + 2) << "needs two pending entries";
  PacketId queued = kInvalidPacket;
  for (const Packet& pk : good.packets)
    if (!pk.delivered() && pk.slot >= 0) queued = pk.id;
  ASSERT_NE(queued, kInvalidPacket);

  std::vector<std::pair<std::string, EngineSnapshot>> cases;
  cases.emplace_back("pending packet already queued", good);
  cases.back().second.injections[cursor].second = queued;
  cases.emplace_back("pending entries in reverse order", good);
  std::reverse(cases.back().second.injections.begin() +
                   static_cast<std::ptrdiff_t>(cursor),
               cases.back().second.injections.end());
  cases.emplace_back("pending id listed twice", good);
  cases.back().second.injections[cursor + 1].second =
      good.injections[cursor].second;
  cases.emplace_back("pending id also waiting", good);
  cases.back().second.waiting_injections.push_back(
      good.injections[cursor].second);

  const std::unique_ptr<Topology> topo = make_topology("mesh", kN, kN);
  Engine engine(*topo, engine_config(1),
                [] { return make_algorithm("dimension-order"); });
  engine.restore(good);
  const std::string state = serialize_snapshot(engine.snapshot());
  for (const auto& [name, edited] : cases) {
    SCOPED_TRACE(name);
    const EngineSnapshot wire = parse_snapshot(serialize_snapshot(edited));
    try {
      engine.restore(wire);
      ADD_FAILURE() << "restore accepted the snapshot";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::Format) << e.what();
    }
    EXPECT_EQ(serialize_snapshot(engine.snapshot()), state);
  }
  // The rejected restores left nothing behind: the run continues exactly
  // like a fresh engine restored from the unedited snapshot.
  Engine fresh(*topo, engine_config(1),
               [] { return make_algorithm("dimension-order"); });
  fresh.restore(good);
  engine.run(kBudget);
  fresh.run(kBudget);
  EXPECT_EQ(engine.fingerprint(true), fresh.fingerprint(true));
  EXPECT_EQ(engine.step(), fresh.step());
  EXPECT_EQ(engine.delivered_count(), fresh.delivered_count());
}

TEST(Snapshot, RewindRestoresPeakOccupancy) {
  // Restoring an earlier snapshot into a running engine rewinds the peak
  // occupancy too: the next step reports the rewound run's peak, not the
  // peak the abandoned future reached, on one band and on four.
  const std::unique_ptr<Topology> topo = make_topology("mesh", kN, kN);
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Engine engine(*topo, engine_config(shards),
                  [] { return make_algorithm("dimension-order"); });
    for (const Demand& d : staggered_workload(*topo))
      engine.add_packet(d.source, d.dest, d.injected_at);
    engine.prepare();
    const EngineSnapshot start = engine.snapshot();
    engine.step_once();
    const int early_peak = engine.max_occupancy_seen();
    engine.run(kBudget);
    ASSERT_GT(engine.max_occupancy_seen(), early_peak);
    engine.restore(start);
    engine.step_once();
    EXPECT_EQ(engine.max_occupancy_seen(), early_peak);
  }
}

TEST(Snapshot, FileRoundTripAndIoError) {
  const EngineSnapshot snap = sample_snapshot("bounded-dimension-order", 1);
  const std::string path = ::testing::TempDir() + "snapshot_test.ckpt";
  write_snapshot_file(path, snap);
  const EngineSnapshot back = read_snapshot_file(path);
  EXPECT_EQ(serialize_snapshot(back), serialize_snapshot(snap));
  try {
    (void)read_snapshot_file(path + ".does-not-exist");
    FAIL() << "read_snapshot_file accepted a missing file";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::Io) << e.what();
  }
}

}  // namespace
}  // namespace mr
