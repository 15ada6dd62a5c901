// Open-loop traffic subsystem: generator determinism and rate accuracy,
// pattern destination laws, pump/batch bit-equivalence, steady-state
// phase-accounting invariants and checkpoint store, and the saturation
// search.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "traffic/drain.hpp"
#include "traffic/pattern.hpp"
#include "traffic/saturation.hpp"
#include "traffic/source.hpp"
#include "traffic/steady_state.hpp"

namespace mr {
namespace {

TrafficSpec spec_of(TrafficPattern pattern, double rate, std::uint64_t seed) {
  TrafficSpec s;
  s.pattern = pattern;
  s.rate = rate;
  s.seed = seed;
  return s;
}

TEST(TrafficPattern, NamesRoundTrip) {
  for (const TrafficPattern p : all_traffic_patterns()) {
    TrafficPattern parsed;
    ASSERT_TRUE(parse_traffic_pattern(traffic_pattern_name(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  TrafficPattern parsed;
  EXPECT_FALSE(parse_traffic_pattern("no-such-pattern", &parsed));
}

TEST(TrafficSource, DeterministicUnderSeed) {
  const Mesh mesh = Mesh::square(8);
  for (const TrafficPattern p : all_traffic_patterns()) {
    BernoulliSource a(mesh, spec_of(p, 0.3, 42));
    BernoulliSource b(mesh, spec_of(p, 0.3, 42));
    const Workload wa = materialize_traffic(a, 1, 50);
    const Workload wb = materialize_traffic(b, 1, 50);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i].source, wb[i].source);
      EXPECT_EQ(wa[i].dest, wb[i].dest);
      EXPECT_EQ(wa[i].injected_at, wb[i].injected_at);
    }
    BernoulliSource c(mesh, spec_of(p, 0.3, 43));
    const Workload wc = materialize_traffic(c, 1, 50);
    bool differs = wc.size() != wa.size();
    for (std::size_t i = 0; !differs && i < wa.size(); ++i)
      differs = wa[i].source != wc[i].source || wa[i].dest != wc[i].dest;
    EXPECT_TRUE(differs) << traffic_pattern_name(p)
                         << ": seed change left the stream identical";
  }
}

TEST(TrafficSource, RateAccuracy) {
  // Offered load over a long window concentrates near rate * nodes * steps
  // (binomial; 5 sigma tolerance keeps this deterministic-test safe).
  const Mesh mesh = Mesh::square(16);
  const double rate = 0.2;
  const Step steps = 2000;
  BernoulliSource source(mesh, spec_of(TrafficPattern::UniformRandom, rate, 7));
  const Workload w = materialize_traffic(source, 1, steps);
  const double trials = static_cast<double>(mesh.num_nodes()) * steps;
  const double expected = rate * trials;
  const double sigma = std::sqrt(trials * rate * (1 - rate));
  EXPECT_NEAR(static_cast<double>(w.size()), expected, 5 * sigma);
  EXPECT_EQ(source.offered(), static_cast<std::int64_t>(w.size()));
}

TEST(TrafficSource, DestinationLaws) {
  const Mesh mesh = Mesh(8, 6);
  Rng rng(5);
  for (NodeId u = 0; u < mesh.num_nodes(); ++u) {
    const Coord xy = mesh.coord_of(u);
    const NodeId bc = traffic_destination(
        mesh, spec_of(TrafficPattern::BitComplement, 1, 1), u, rng);
    if (xy.col == 7 - xy.col && xy.row == 5 - xy.row) {
      EXPECT_EQ(bc, kInvalidNode);
    } else {
      EXPECT_EQ(bc, mesh.id_of(7 - xy.col, 5 - xy.row));
    }
    const NodeId tor = traffic_destination(
        mesh, spec_of(TrafficPattern::Tornado, 1, 1), u, rng);
    EXPECT_EQ(tor, mesh.id_of((xy.col + 3) % 8, (xy.row + 2) % 6));
    // Uniform never picks the source itself.
    for (int trial = 0; trial < 32; ++trial) {
      const NodeId d = traffic_destination(
          mesh, spec_of(TrafficPattern::UniformRandom, 1, 1), u, rng);
      ASSERT_NE(d, u);
      ASSERT_GE(d, 0);
      ASSERT_LT(d, mesh.num_nodes());
    }
  }
  const Mesh square = Mesh::square(6);
  for (NodeId u = 0; u < square.num_nodes(); ++u) {
    const Coord xy = square.coord_of(u);
    const NodeId tp = traffic_destination(
        square, spec_of(TrafficPattern::Transpose, 1, 1), u, rng);
    if (xy.col == xy.row) {
      EXPECT_EQ(tp, kInvalidNode);  // diagonal does not inject
    } else {
      EXPECT_EQ(tp, square.id_of(xy.row, xy.col));
    }
  }
}

TEST(TrafficSource, HotspotFraction) {
  const Mesh mesh = Mesh::square(8);
  TrafficSpec spec = spec_of(TrafficPattern::Hotspot, 1, 11);
  spec.hotspot_fraction = 0.25;
  const NodeId sink = hotspot_sink(mesh, spec);
  Rng rng(11);
  int to_sink = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    const NodeId src = static_cast<NodeId>(i % mesh.num_nodes());
    const NodeId d = traffic_destination(mesh, spec, src, rng);
    ASSERT_NE(d, src);
    if (d == sink && src != sink) ++to_sink;
  }
  // Sink hit fraction ~ 0.25 + 0.75/(n-1) background; 5 sigma band.
  const double p = 0.25 + 0.75 / (mesh.num_nodes() - 1);
  const double sigma = std::sqrt(trials * p * (1 - p));
  EXPECT_NEAR(to_sink, p * trials, 5 * sigma);
}

TEST(TrafficPump, BitIdenticalToPreScheduledBatch) {
  // The same stream pumped with a small generation-ahead window vs fully
  // pre-scheduled through add_packet: identical step counts, deliveries,
  // moves and final fingerprint.
  const Mesh mesh = Mesh::square(8);
  const Step steps = 60;
  TrafficSpec tspec = spec_of(TrafficPattern::UniformRandom, 0.15, 21);

  BernoulliSource batch_source(mesh, tspec);
  const Workload stream = materialize_traffic(batch_source, 1, steps);
  auto algo_batch = make_algorithm("bounded-dimension-order");
  Engine::Config config;
  config.queue_capacity = 2;
  Engine batch(mesh, config, *algo_batch);
  for (const Demand& d : stream)
    batch.add_packet(d.source, d.dest, d.injected_at);
  batch.prepare();
  batch.run(100000);
  ASSERT_TRUE(batch.all_delivered());

  auto algo_pumped = make_algorithm("bounded-dimension-order");
  config.stall_counts_pending_injections = true;  // open-loop policy
  Engine pumped(mesh, config, *algo_pumped);
  BernoulliSource live_source(mesh, tspec);
  TrafficPump pump(pumped, live_source, steps, /*ahead=*/4);
  run_to_drain(pumped, {}, &pump, 100000);
  ASSERT_TRUE(pumped.all_delivered());

  EXPECT_EQ(pump.offered(), static_cast<std::int64_t>(stream.size()));
  EXPECT_EQ(pumped.step(), batch.step());
  EXPECT_EQ(pumped.total_moves(), batch.total_moves());
  EXPECT_EQ(pumped.max_occupancy_seen(), batch.max_occupancy_seen());
  EXPECT_EQ(pumped.fingerprint(), batch.fingerprint());
}

TEST(TrafficPump, SurvivesIdleGapsAtLowRate) {
  // Rate low enough that the network repeatedly drains mid-stream: the
  // pump must fast-forward emission across the idle gaps.
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.queue_capacity = 4;
  config.stall_counts_pending_injections = true;
  config.stall_limit = 4096;
  Engine e(mesh, config, *algo);
  BernoulliSource source(mesh,
                         spec_of(TrafficPattern::UniformRandom, 0.005, 3));
  TrafficPump pump(e, source, 400, /*ahead=*/2);
  run_to_drain(e, {}, &pump, 100000);
  EXPECT_TRUE(pump.exhausted());
  EXPECT_TRUE(e.all_delivered());
  EXPECT_FALSE(e.stalled());
  EXPECT_EQ(pump.offered(), static_cast<std::int64_t>(e.num_packets()));
}

TEST(TrafficPump, RestoreRejectsAWindowPastTheStream) {
  // The per-step counts are sized from the blob; a count beyond the
  // pump's own stream is rejected before anything is allocated.
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  Engine e(mesh, Engine::Config{}, *algo);
  BernoulliSource source(mesh, spec_of(TrafficPattern::UniformRandom, 0.1, 3));
  TrafficPump pump(e, source, 10, /*ahead=*/2);
  EXPECT_THROW(pump.restore_state("pump/1 11 1 0 11"), SnapshotError);
  EXPECT_THROW(
      pump.restore_state("pump/1 4611686018427387904 1 0 4611686018427387904"),
      SnapshotError);
  EXPECT_NO_THROW(pump.restore_state("pump/1 2 1 3 2 1 2"));
  EXPECT_EQ(pump.offered(), 3);
}

TEST(ReplaySource, ReproducesMaterializedStream) {
  const Mesh mesh = Mesh::square(6);
  BernoulliSource original(mesh,
                           spec_of(TrafficPattern::UniformRandom, 0.2, 9));
  const Workload stream = materialize_traffic(original, 1, 40);
  ReplaySource replay(stream);
  const Workload again = materialize_traffic(replay, 1, 40);
  ASSERT_EQ(again.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(again[i].source, stream[i].source);
    EXPECT_EQ(again[i].dest, stream[i].dest);
    EXPECT_EQ(again[i].injected_at, stream[i].injected_at);
  }
}

TEST(SteadyState, PhaseAccountingInvariants) {
  SteadyStateSpec spec;
  spec.width = spec.height = 8;
  spec.queue_capacity = 2;
  spec.algorithm = "bounded-dimension-order";
  spec.traffic = spec_of(TrafficPattern::UniformRandom, 0.1, 33);
  spec.warmup_steps = 64;
  spec.measure_steps = 256;
  const SteadyStateResult r = run_steady_state(spec);

  EXPECT_FALSE(r.stalled);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.backlog_end, 0);
  // Phase totals add up to the run totals.
  EXPECT_EQ(r.warmup.offered + r.measure.offered + r.drain.offered,
            r.total_offered);
  EXPECT_EQ(r.warmup.delivered + r.measure.delivered + r.drain.delivered,
            r.total_delivered);
  EXPECT_EQ(r.total_delivered, r.total_offered);
  EXPECT_EQ(r.drain.offered, 0);  // source stops at the measure boundary
  EXPECT_EQ(r.warmup.steps, 64);
  EXPECT_EQ(r.measure.steps, 256);
  EXPECT_LE(r.measured_delivered, r.measured_packets);
  // Sub-saturation: accepted tracks offered and the phase completes.
  EXPECT_GT(r.offered_rate, 0.05);
  EXPECT_NEAR(r.accepted_rate, r.offered_rate, 0.2 * r.offered_rate);
  EXPECT_GT(r.latency.mean, 0);
  EXPECT_LE(r.latency.p50, r.latency.p99);
}

TEST(SteadyState, StalledRunIsReported) {
  // Central-queue dimension order at k = 1 deadlocks under any sustained
  // load; the steady-state runner must report the stall, not spin.
  SteadyStateSpec spec;
  spec.width = spec.height = 8;
  spec.queue_capacity = 1;
  spec.algorithm = "dimension-order";
  spec.traffic = spec_of(TrafficPattern::UniformRandom, 0.3, 5);
  spec.warmup_steps = 32;
  spec.measure_steps = 128;
  spec.stall_limit = 256;
  const SteadyStateResult r = run_steady_state(spec);
  EXPECT_TRUE(r.stalled);
  EXPECT_FALSE(r.drained);
  EXPECT_GT(r.backlog_end, 0);
}

/// Forwards to a BernoulliSource; when asked for step `copy_at` it copies
/// the store's snapshot file (a mid-run checkpoint then) to `copy`, which
/// stands in for what a crash at that point would leave.
class CopyingSource final : public TrafficSource {
 public:
  CopyingSource(const Topology& topo, const TrafficSpec& spec, Step copy_at,
                std::string ckpt, std::string copy)
      : inner_(topo, spec),
        copy_at_(copy_at),
        ckpt_(std::move(ckpt)),
        copy_(std::move(copy)) {}
  void emit(Step step, std::vector<Demand>& out) override {
    if (step == copy_at_)
      std::filesystem::copy_file(
          ckpt_, copy_, std::filesystem::copy_options::overwrite_existing);
    inner_.emit(step, out);
  }
  std::string save_state() const override { return inner_.save_state(); }
  void restore_state(const std::string& blob) override {
    inner_.restore_state(blob);
  }

 private:
  BernoulliSource inner_;
  Step copy_at_;
  std::string ckpt_, copy_;
};

TEST(SteadyState, CheckpointStoreResumesBitIdentically) {
  const std::string dir = ::testing::TempDir() + "steady_ckpt_store";
  std::filesystem::remove_all(dir);
  SteadyStateSpec spec;
  spec.width = spec.height = 8;
  spec.queue_capacity = 2;
  spec.algorithm = "bounded-dimension-order";
  spec.traffic = spec_of(TrafficPattern::UniformRandom, 0.1, 33);
  spec.warmup_steps = 64;
  spec.measure_steps = 256;
  const SteadyStateResult baseline = run_steady_state(spec);

  // Checkpointing does not perturb the run. Emission of step 200 happens
  // at engine step 200 - pump_ahead = 168, when the store holds the
  // snapshot of step 160.
  spec.checkpoint.dir = dir;
  spec.checkpoint.key = "steady";
  spec.checkpoint.every = 16;
  const std::string ckpt = spec.checkpoint.snapshot_path();
  const std::string mid = dir + "/mid.ckpt";
  const Mesh mesh = Mesh::square(8);
  CopyingSource source(mesh, spec.traffic, 200, ckpt, mid);
  EXPECT_EQ(run_steady_state(spec, source), baseline);
  ASSERT_TRUE(std::filesystem::exists(mid));
  EXPECT_EQ(read_snapshot_file(mid).meta.step, 160);
  EXPECT_EQ(read_snapshot_file(ckpt).meta.step, baseline.steps);

  // A rerun of the finished store restores the final snapshot.
  EXPECT_EQ(run_steady_state(spec), baseline);

  // Crash simulation: the mid-run snapshot is back in the store. The
  // resumed run (fresh source; its RNG state comes from the aux blobs)
  // reproduces the uninterrupted result.
  std::filesystem::copy_file(mid, ckpt,
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_EQ(run_steady_state(spec), baseline);

  // A torn store is a typed error, never a silent fresh start.
  std::string bytes;
  ASSERT_TRUE(read_text_file(ckpt, &bytes));
  std::ofstream(ckpt, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW(run_steady_state(spec), SnapshotError);
}

TEST(Saturation, BoundedRouterGainsWithK) {
  SaturationSpec search;
  search.base.width = search.base.height = 8;
  search.base.algorithm = "bounded-dimension-order";
  search.base.traffic = spec_of(TrafficPattern::UniformRandom, 0.1, 77);
  search.base.warmup_steps = 32;
  search.base.measure_steps = 128;
  search.resolution = 1.0 / 64.0;

  search.base.queue_capacity = 1;
  const SaturationResult k1 = find_saturation_rate(search);
  search.base.queue_capacity = 4;
  const SaturationResult k4 = find_saturation_rate(search);

  EXPECT_GT(k1.saturation_rate, 0.0);  // deadlock-free even at k = 1
  EXPECT_GE(k4.saturation_rate, k1.saturation_rate);
  EXPECT_GT(k1.first_unsustainable, k1.saturation_rate);
  for (const SaturationProbe& p : k1.probes)
    EXPECT_EQ(p.sustainable,
              p.rate <= k1.saturation_rate);  // bisection consistency
}

}  // namespace
}  // namespace mr
