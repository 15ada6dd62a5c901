// Snapshot/restore property tests: a run snapshotted at step t, serialized
// through the meshroute-snapshot/1 wire format and restored must continue
// bit-identically to the uninterrupted run — same fingerprint stream, same
// StepDigest stream, same final counters — for every registry algorithm on
// every topology family and on the sharded engine. Plus negative coverage:
// corrupt wire bytes and mismatched headers fail with the typed
// SnapshotError kinds, never silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/fuzz.hpp"
#include "check/oracles.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"
#include "topo/registry.hpp"
#include "traffic/source.hpp"
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

/// The staggered run snapshotted after kSnapshotStep. `crowd` extra
/// packets become due at node 0 in the snapshot step; with k = 2, all but
/// two of them are still waiting outside the network in the snapshot.
EngineSnapshot sample_snapshot(const std::string& algo, int shards,
                               int crowd = 0) {
  const std::unique_ptr<Topology> topo = make_topology("mesh", kN, kN);
  Engine engine(*topo, engine_config(shards),
                [&] { return make_algorithm(algo); });
  for (const Demand& d : staggered_workload(*topo))
    engine.add_packet(d.source, d.dest, d.injected_at);
  for (int i = 0; i < crowd; ++i)
    engine.add_packet(0, kN * kN - 1 - i, kSnapshotStep);
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
  const EngineSnapshot good = sample_snapshot("dimension-order", 1, /*crowd=*/4);
  const auto cursor = static_cast<std::size_t>(good.injection_cursor);
  ASSERT_GE(good.injections.size(), cursor + 2) << "needs two pending entries";
  ASSERT_GE(good.waiting_injections.size(), 2u) << "needs two waiting packets";
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
  // The engine injects waiting packets in id order per source without
  // re-sorting, so a shuffled waiting list would change the run.
  cases.emplace_back("waiting entries out of id order", good);
  std::reverse(cases.back().second.waiting_injections.begin(),
               cases.back().second.waiting_injections.end());

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

TEST(Snapshot, RejectedRestoreLeavesEngineUnchanged) {
  // Both edits survive the wire format but break the queues the engine
  // rebuilds from the packet records. restore() must reject them before
  // it adopts anything: the engine, one step past the snapshot, is left
  // exactly as it was.
  const EngineSnapshot good = sample_snapshot("dimension-order", 1, /*crowd=*/4);
  std::vector<int> queued_at(kN * kN, 0);
  for (const Packet& pk : good.packets)
    if (!pk.delivered() && pk.slot >= 0) ++queued_at[pk.location];
  ASSERT_EQ(queued_at[0], 2) << "the crowd must fill node 0's queue (k = 2)";
  // A donor is the last packet of a queue elsewhere, so moving it leaves
  // its old queue consistent.
  PacketId donor = kInvalidPacket;
  for (const Packet& pk : good.packets)
    if (!pk.delivered() && pk.slot >= 0 && pk.location != 0 &&
        pk.slot == queued_at[pk.location] - 1)
      donor = pk.id;
  ASSERT_NE(donor, kInvalidPacket);

  std::vector<std::pair<std::string, EngineSnapshot>> cases;
  cases.emplace_back("queued packet's slot raised by 1", good);
  ++cases.back().second.packets[static_cast<std::size_t>(donor)].slot;
  cases.emplace_back("one packet too many in a queue", good);
  Packet& extra = cases.back().second.packets[static_cast<std::size_t>(donor)];
  extra.location = 0;
  extra.slot = 2;

  const std::unique_ptr<Topology> topo = make_topology("mesh", kN, kN);
  Engine engine(*topo, engine_config(1),
                [] { return make_algorithm("dimension-order"); });
  engine.restore(good);
  ASSERT_TRUE(engine.step_once());
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

TEST(Snapshot, RestoresALargeBacklogMidRun) {
  // Bernoulli traffic at 0.9 packets per node per step, far above what an
  // 8x8 mesh accepts, snapshotted mid-run with thousands of packets
  // waiting outside full source queues: the waiting FIFOs rebuilt from the
  // snapshot's id list must continue the run bit-identically, on one band
  // and on three, and a waiting list with two ids swapped is still
  // rejected.
  const std::unique_ptr<Topology> topo = make_topology("mesh", 8, 8);
  TrafficSpec spec;
  spec.rate = 0.9;
  spec.seed = 5;
  BernoulliSource source(*topo, spec);
  const Workload traffic = materialize_traffic(source, 1, 150);
  constexpr Step kBacklogStep = 120;
  const auto make_engine = [&](int shards) {
    auto e = std::make_unique<Engine>(*topo, engine_config(shards), [] {
      return make_algorithm("bounded-dimension-order");
    });
    for (const Demand& d : traffic)
      e->add_packet(d.source, d.dest, d.injected_at);
    return e;
  };
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::unique_ptr<Engine> straight = make_engine(shards);
    straight->prepare();
    while (straight->step() < kBacklogStep && straight->step_once()) {
    }
    const EngineSnapshot snap =
        parse_snapshot(serialize_snapshot(straight->snapshot()));
    ASSERT_GT(snap.waiting_injections.size(), 1000u);
    Outcome want;
    run_tail(*straight, &want);
    EXPECT_TRUE(straight->all_delivered());

    Engine fresh(*topo, engine_config(shards),
                 [] { return make_algorithm("bounded-dimension-order"); });
    fresh.restore(snap);
    Outcome got;
    run_tail(fresh, &got);
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.tail_digest, want.tail_digest);
    EXPECT_EQ(got.steps, want.steps);
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.total_moves, want.total_moves);
    EXPECT_EQ(got.max_occupancy, want.max_occupancy);

    EngineSnapshot swapped = snap;
    std::swap(swapped.waiting_injections[500], swapped.waiting_injections[501]);
    Engine other(*topo, engine_config(shards),
                 [] { return make_algorithm("bounded-dimension-order"); });
    try {
      other.restore(parse_snapshot(serialize_snapshot(swapped)));
      ADD_FAILURE() << "restore accepted a waiting list out of id order";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::Format) << e.what();
    }
  }
}

/// FNV-1a of `bytes` as 16 hex digits, the form of the header checksum.
std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// A snapshot with every section filled: queued and delivered packets,
/// pending future-dated injections, packets waiting outside a full source
/// queue, and aux blobs whose text needs JSON escapes.
std::string sample_wire() {
  EngineSnapshot snap = sample_snapshot("dimension-order", 1, /*crowd=*/4);
  snap.set_aux("source", "rng \"seed\" 7\\n\x01\tend");
  snap.set_aux("pump", "window=3,offered=19");
  return serialize_snapshot(snap);
}

TEST(Snapshot, WireBytesUnchanged) {
  // The exact meshroute-snapshot/1 bytes of a fixed run, pinned so that a
  // rewrite of the writer cannot change the format unnoticed.
  const std::string wire = sample_wire();
  const EngineSnapshot snap = parse_snapshot(wire);
  ASSERT_GT(snap.injections.size(), snap.injection_cursor);
  ASSERT_FALSE(snap.waiting_injections.empty());
  ASSERT_EQ(snap.aux.size(), 2u);
  EXPECT_EQ(wire.size(), 3298u);
  EXPECT_EQ(fnv1a_hex(wire), "b18875aacc4f97cd");
}

TEST(Snapshot, MutatedBytesParseOrThrowSnapshotError) {
  // Seeded byte mutations of a small snapshot: header and payload bytes
  // flipped, the file truncated, header digits edited, and payload bytes
  // flipped under a recomputed checksum. Every mutant must parse or throw
  // SnapshotError, and every mutant that parses must restore or throw
  // SnapshotError; nothing else may escape.
  const std::string good = sample_wire();
  const std::size_t header_at = good.find('\n') + 1;
  const std::size_t payload_at = good.find('\n', header_at) + 1;
  const std::size_t checksum_at =
      good.find("\"checksum\":\"", header_at) + std::string("\"checksum\":\"").size();
  ASSERT_LT(checksum_at, payload_at);
  std::vector<std::size_t> digits;
  for (std::size_t i = header_at; i < payload_at; ++i)
    if (good[i] >= '0' && good[i] <= '9') digits.push_back(i);
  const std::unique_ptr<Topology> topo = make_topology("mesh", kN, kN);

  std::mt19937_64 rng(20240611);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto flip = [&](std::string& w, std::size_t at) {
    w[at] = static_cast<char>(w[at] ^ (1 + below(255)));
  };
  constexpr int kMutants = 2000;
  int parsed = 0;
  int restored = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string wire = good;
    switch (i % 5) {
      case 0:
        flip(wire, below(payload_at));
        break;
      case 1:
        flip(wire, payload_at + below(wire.size() - payload_at));
        break;
      case 2:
        wire.resize(below(wire.size()));
        break;
      case 3: {
        const std::size_t at = digits[below(digits.size())];
        switch (below(3)) {
          case 0:
            wire[at] = static_cast<char>('0' + (wire[at] - '0' + 1 + below(9)) % 10);
            break;
          case 1:
            wire.erase(at, 1);
            break;
          default:
            wire.insert(at, 1, static_cast<char>('0' + below(10)));
        }
        break;
      }
      default: {
        flip(wire, payload_at + below(wire.size() - payload_at));
        wire.replace(checksum_at, 16,
                     fnv1a_hex(std::string_view(wire).substr(payload_at)));
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(i));
    EngineSnapshot snap;
    try {
      snap = parse_snapshot(wire);
    } catch (const SnapshotError&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "parse threw a non-SnapshotError: " << e.what();
      continue;
    }
    ++parsed;
    Engine engine(*topo, engine_config(1),
                  [] { return make_algorithm("dimension-order"); });
    try {
      engine.restore(snap);
      ++restored;
    } catch (const SnapshotError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "restore threw a non-SnapshotError: " << e.what();
    }
  }
  // The mutants reach restore, and some of them restore cleanly.
  EXPECT_GT(parsed, kMutants / 10);
  EXPECT_GT(restored, 0);
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
