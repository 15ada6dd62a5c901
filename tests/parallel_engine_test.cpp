// Bit-identical equivalence of the multi-band step pipeline (DESIGN.md §9)
// with its one-band case: per-step fingerprints, digest streams and
// final counters must match for every registered router across shard
// (tile) counts and thread counts, on the mesh and the torus, including
// uneven bands (height not divisible by the shard count) and the staggered
// -injection / full-queue waiting paths, up to saturated open-loop
// traffic that keeps a backlog outside the network in every band.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "traffic/pump.hpp"
#include "traffic/source.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

struct Mode {
  int shards = 1;
  int threads = 1;
};

struct Trace {
  std::vector<std::uint64_t> fingerprints;  // post-prepare + per step
  std::uint64_t digest_hash = 0;
  std::int64_t total_moves = 0;
  std::size_t delivered = 0;
  int max_occupancy = 0;
  bool stalled = false;
};

/// Fills the end-of-run fields of `t`.
void finish(const Engine& e, const DigestHasher& hasher, Trace& t) {
  t.digest_hash = hasher.hash();
  t.total_moves = e.total_moves();
  t.delivered = e.delivered_count();
  t.max_occupancy = e.max_occupancy_seen();
  t.stalled = e.stalled();
}

Trace trace(const std::string& router, std::int32_t n, bool torus, int k,
            std::uint64_t seed, Step steps, Mode mode) {
  const Mesh mesh = Mesh::square(n, torus);
  Engine::Config config;
  config.queue_capacity = k;
  config.shards = mode.shards;
  config.threads = mode.threads;
  Engine e(mesh, config, [&] { return make_algorithm(router); });
  const Workload w = random_hh(mesh, 2, seed);
  for (std::size_t i = 0; i < w.size(); ++i) {
    const Step at = (i % 5 == 0) ? static_cast<Step>(i % 7) : 0;
    e.add_packet(w[i].source, w[i].dest, at);
  }
  // Extra packets at already-used sources force the waiting-injection path.
  for (std::int32_t c = 0; c < 6 && c < n; ++c)
    e.add_packet(mesh.id_of(c, 0), mesh.id_of(n - 1, n - 1), /*injected_at=*/2);
  DigestHasher hasher;
  e.add_observer(&hasher);
  e.prepare();
  Trace t;
  t.fingerprints.push_back(e.fingerprint());
  for (Step s = 0; s < steps && !e.all_delivered() && !e.stalled(); ++s) {
    e.step_once();
    t.fingerprints.push_back(e.fingerprint());
  }
  finish(e, hasher, t);
  return t;
}

void expect_identical(const Trace& seq, const Trace& par,
                      const std::string& label) {
  ASSERT_EQ(seq.fingerprints.size(), par.fingerprints.size()) << label;
  for (std::size_t i = 0; i < seq.fingerprints.size(); ++i)
    ASSERT_EQ(seq.fingerprints[i], par.fingerprints[i])
        << label << " fingerprint diverges at step " << i;
  EXPECT_EQ(seq.digest_hash, par.digest_hash) << label;
  EXPECT_EQ(seq.total_moves, par.total_moves) << label;
  EXPECT_EQ(seq.delivered, par.delivered) << label;
  EXPECT_EQ(seq.max_occupancy, par.max_occupancy) << label;
  EXPECT_EQ(seq.stalled, par.stalled) << label;
}

std::string label_of(const std::string& router, bool torus, Mode m) {
  std::ostringstream os;
  os << router << (torus ? "/torus" : "/mesh") << "/shards" << m.shards
     << "/threads" << m.threads;
  return os.str();
}

// ISSUE #6 acceptance grid: thread counts {1, 2, 4, 8} plus tile-size
// variation, including shard counts that divide the mesh height unevenly
// (n = 11 with 2, 3 and 8 bands) and shards > threads.
const Mode kModes[] = {
    {2, 1}, {2, 2}, {3, 2}, {4, 4}, {8, 8}, {11, 4},
};

TEST(ParallelEngine, AllRoutersMatchSequentialOnMesh) {
  constexpr std::int32_t n = 11;
  for (const std::string& router : algorithm_names()) {
    const Trace seq = trace(router, n, false, 2, 17, 40, Mode{1, 1});
    for (const Mode& m : kModes) {
      const Trace par = trace(router, n, false, 2, 17, 40, m);
      expect_identical(seq, par, label_of(router, false, m));
    }
  }
}

TEST(ParallelEngine, DxRoutersMatchSequentialOnTorus) {
  // Wrap links exercise the cyclic frontier mailboxes (band 0 <-> last
  // band) and the torus offer-sorting path.
  constexpr std::int32_t n = 8;
  for (const std::string& router : dx_minimal_algorithm_names()) {
    const Trace seq = trace(router, n, true, 2, 23, 40, Mode{1, 1});
    for (const Mode& m : {Mode{2, 2}, Mode{3, 2}, Mode{8, 4}}) {
      const Trace par = trace(router, n, true, 2, 23, 40, m);
      expect_identical(seq, par, label_of(router, true, m));
    }
  }
}

TEST(ParallelEngine, BoundedDimensionOrderMatchesOnTorus) {
  const Trace seq =
      trace("bounded-dimension-order", 8, true, 2, 29, 40, Mode{1, 1});
  for (const Mode& m : {Mode{2, 2}, Mode{4, 4}}) {
    const Trace par = trace("bounded-dimension-order", 8, true, 2, 29, 40, m);
    expect_identical(seq, par, label_of("bounded-dimension-order", true, m));
  }
}

TEST(ParallelEngine, EmpsMatchesOnTorus) {
  // The EMPS competitor is full-information and per-inlink; its wrap-tie
  // handling (East/North win) must survive band handoffs unchanged.
  const Trace seq = trace("emps", 8, true, 2, 37, 40, Mode{1, 1});
  for (const Mode& m : {Mode{2, 2}, Mode{3, 2}, Mode{8, 4}}) {
    const Trace par = trace("emps", 8, true, 2, 37, 40, m);
    expect_identical(seq, par, label_of("emps", true, m));
  }
}

/// Open-loop uniform traffic far above what an n×n mesh accepts, pumped
/// for `inject_steps` steps and then drained. If `all_rows_waiting` is
/// given, sets it when after some step every row held a source with a
/// packet waiting outside the network, i.e. every band of every split had
/// a backlog at once.
Trace saturated_trace(const std::string& router, std::int32_t n,
                      Step inject_steps, Mode mode, bool* all_rows_waiting) {
  const Mesh mesh = Mesh::square(n);
  Engine::Config config;
  config.queue_capacity = 2;
  config.stall_counts_pending_injections = true;
  config.stall_limit = 64;
  config.shards = mode.shards;
  config.threads = mode.threads;
  Engine e(mesh, config, [&] { return make_algorithm(router); });
  TrafficSpec spec;
  spec.rate = 0.6;
  spec.seed = 41;
  BernoulliSource source(mesh, spec);
  TrafficPump pump(e, source, inject_steps, /*ahead=*/3);
  pump.prime();
  DigestHasher hasher;
  e.add_observer(&hasher);
  e.prepare();
  Trace t;
  t.fingerprints.push_back(e.fingerprint());
  if (all_rows_waiting != nullptr) *all_rows_waiting = false;
  while (!e.stalled() && e.step() < 4000) {
    pump.advance();
    if (e.all_delivered()) break;
    e.step_once();
    t.fingerprints.push_back(e.fingerprint());
    if (all_rows_waiting == nullptr) continue;
    std::vector<std::uint8_t> row_waiting(static_cast<std::size_t>(n), 0);
    for (const Packet& pk : e.all_packets())
      if (!pk.delivered() && pk.location == kInvalidNode &&
          pk.injected_at <= e.step())
        row_waiting[static_cast<std::size_t>(mesh.coord_of(pk.source).row)] = 1;
    if (std::find(row_waiting.begin(), row_waiting.end(), 0) == row_waiting.end())
      *all_rows_waiting = true;
  }
  finish(e, hasher, t);
  return t;
}

TEST(ParallelEngine, SaturatedOpenLoopBacklogMatchesSequential) {
  // Every band merges newly due packets into its own waiting list each
  // step, concurrently with the other bands. At this load the per-inlink
  // routers drain; the central-queue ones deadlock within a few steps and
  // must stall at the same step on every split.
  constexpr std::int32_t n = 11;
  for (const std::string& router : algorithm_names()) {
    bool backlog = false;
    const Trace seq = saturated_trace(router, n, 40, Mode{1, 1}, &backlog);
    EXPECT_TRUE(backlog) << router << ": some row never had a backlog";
    if (make_algorithm(router)->queue_layout() == QueueLayout::PerInlink) {
      EXPECT_FALSE(seq.stalled) << router;
    }
    for (const Mode& m : kModes) {
      const Trace par = saturated_trace(router, n, 40, m, nullptr);
      expect_identical(seq, par, "saturated/" + label_of(router, false, m));
    }
  }
}

TEST(ParallelEngine, ShardsClampToMeshHeight) {
  // More shards than rows must degrade gracefully to one band per row.
  const Trace seq = trace("dimension-order", 4, false, 2, 31, 30, Mode{1, 1});
  const Trace par = trace("dimension-order", 4, false, 2, 31, 30, Mode{64, 8});
  expect_identical(seq, par, "clamped-shards");
}

TEST(ParallelEngine, SingleAlgorithmConstructorRequiresSerialTiles) {
  const Mesh mesh = Mesh::square(6, false);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.shards = 3;
  config.threads = 1;  // serial tiles: one shared instance is fine
  Engine ok(mesh, config, *algo);
  EXPECT_EQ(ok.shard_count(), 3);
  config.threads = 2;  // concurrent tiles need per-band instances
  auto algo2 = make_algorithm("dimension-order");
  EXPECT_THROW(Engine(mesh, config, *algo2), InvariantViolation);
}

TEST(ParallelEngine, InterceptorRejectedInShardedMode) {
  class NullInterceptor : public StepInterceptor {
    void after_schedule(Sim&, std::span<const ScheduledMove>) override {}
  };
  const Mesh mesh = Mesh::square(6, false);
  Engine::Config config;
  config.shards = 2;
  Engine e(mesh, config, [] { return make_algorithm("dimension-order"); });
  NullInterceptor interceptor;
  EXPECT_THROW(e.set_interceptor(&interceptor), InvariantViolation);
}

}  // namespace
}  // namespace mr
