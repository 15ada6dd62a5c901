// Telemetry subsystem tests: TraceRecorder reads each step digest in the
// per-event Observer's replay order exactly, the prepare() digest carries
// the source==dest deliveries, the latency summary counts what was
// delivered, the TelemetryCollector's stride-doubling series stays bounded
// and lossless in its sums, and the meshroute-telemetry/1 export
// round-trips through the json_min validator.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

/// The per-event Observer's replay of each digest, recorded as trace
/// events: what TraceRecorder must match event for event.
class PerEventRecorder final : public Observer {
 public:
  void on_move(const Sim& e, const Packet& p, NodeId from,
               NodeId to) override {
    events_.push_back({TraceEventKind::Move, e.step(), p.id, from, to});
    if (to != p.dest) ++non_delivery_moves_;
  }
  void on_deliver(const Sim& e, const Packet& p) override {
    events_.push_back(
        {TraceEventKind::Deliver, e.step(), p.id, p.dest, p.dest});
  }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::int64_t non_delivery_moves() const { return non_delivery_moves_; }

 private:
  std::vector<TraceEvent> events_;
  std::int64_t non_delivery_moves_ = 0;
};

struct EngineRun {
  Mesh mesh;
  std::unique_ptr<Algorithm> algo;
  std::unique_ptr<Engine> engine;
};

/// monotone: keep only down-right demands — central-queue routers can
/// deadlock on full random permutations (as in E13's workload_for()),
/// so tests that assert delivery use the deadlock-free subset.
EngineRun make_run(const std::string& router, std::int32_t n, bool torus,
                   int k, std::uint64_t seed, bool monotone = false) {
  EngineRun run{Mesh::square(n, torus), make_algorithm(router), nullptr};
  Engine::Config config;
  config.queue_capacity = k;
  run.engine = std::make_unique<Engine>(run.mesh, config, *run.algo);
  std::size_t i = 0;
  for (const Demand& d : random_permutation(run.mesh, seed)) {
    const Coord s = run.mesh.coord_of(d.source);
    const Coord t = run.mesh.coord_of(d.dest);
    if (monotone && (t.col < s.col || t.row < s.row)) continue;
    run.engine->add_packet(d.source, d.dest,
                           (i % 5 == 0) ? static_cast<Step>(i % 7) : 0);
    ++i;
  }
  return run;
}

TEST(ObserverReplay, DigestStreamMatchesTraceRecorder) {
  for (const std::string& router :
       {std::string("adaptive-alternate"), std::string("stray-2"),
        std::string("bounded-dimension-order")}) {
    EngineRun run = make_run(router, 10, false, 2, 11);
    // Source==dest packets delivered by prepare() and by a later step's
    // injection, ahead of that step's moves.
    run.engine->add_packet(5, 5);
    run.engine->add_packet(7, 7, /*injected_at=*/3);
    TraceRecorder trace;
    PerEventRecorder per_event;
    run.engine->add_observer(&trace);
    run.engine->add_observer(&per_event);
    run.engine->prepare();
    run.engine->run(300);

    ASSERT_EQ(trace.events().size(), per_event.events().size()) << router;
    for (std::size_t i = 0; i < trace.events().size(); ++i)
      ASSERT_EQ(trace.events()[i], per_event.events()[i])
          << router << " event " << i;
    // Non-delivering hops are exactly what the engine's own counter counts.
    EXPECT_EQ(per_event.non_delivery_moves(), run.engine->total_moves());
  }
}

TEST(StepDigest, PrepareDigestCarriesSourceEqualsDestDeliveries) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.queue_capacity = 2;
  Engine e(mesh, config, *algo);
  // Two source==dest packets deliver during prepare(), one travels.
  e.add_packet(mesh.id_of(1, 1), mesh.id_of(1, 1));
  e.add_packet(mesh.id_of(2, 2), mesh.id_of(2, 2));
  e.add_packet(mesh.id_of(0, 0), mesh.id_of(2, 0));
  class PrepareDigest final : public StepObserver {
   public:
    void on_prepare(const Sim&, const StepDigest& d) override {
      step = d.step;
      deliveries = d.deliveries;
      ids.assign(d.injected_deliveries.begin(), d.injected_deliveries.end());
    }
    void on_step(const Sim&, const StepDigest&) override {}
    Step step = -1;
    std::int64_t deliveries = 0;
    std::vector<PacketId> ids;
  } prepare;
  e.add_observer(&prepare);
  e.prepare();
  EXPECT_EQ(prepare.step, 0);
  EXPECT_EQ(prepare.deliveries, 2);
  EXPECT_EQ(prepare.ids, (std::vector<PacketId>{0, 1}));
  EXPECT_EQ(e.packet(0).delivered_at, 0);
  EXPECT_EQ(e.packet(1).delivered_at, 0);
}

TEST(LatencySummary, FromPacketsSkipsUndeliveredAndCountsSelfDeliveries) {
  const Mesh mesh = Mesh::square(8);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.queue_capacity = 8;
  Engine e(mesh, config, *algo);
  // Three packets with known uncontended latencies 3, 7, 14, a source==dest
  // packet (latency 0) and one that is not due before the run ends.
  e.add_packet(mesh.id_of(0, 0), mesh.id_of(3, 0));
  e.add_packet(mesh.id_of(0, 1), mesh.id_of(7, 1));
  e.add_packet(mesh.id_of(0, 7), mesh.id_of(7, 0));
  e.add_packet(mesh.id_of(5, 5), mesh.id_of(5, 5));
  e.add_packet(mesh.id_of(4, 4), mesh.id_of(6, 6), /*injected_at=*/1000);
  e.prepare();
  e.run(100);
  ASSERT_EQ(e.delivered_count(), 4u);
  const LatencySummary s = latency_summary_from_packets(e.all_packets());
  EXPECT_DOUBLE_EQ(s.mean, (0 + 3 + 7 + 14) / 4.0);
  EXPECT_EQ(s.p50, 3);
  EXPECT_EQ(s.p95, 14);
  EXPECT_EQ(s.p99, 14);
  EXPECT_EQ(s.max, 14);
  EXPECT_EQ(latency_summary_from_packets({}).max, 0);
}

TEST(StepDigest, CountersAreSelfConsistent) {
  EngineRun run = make_run("dimension-order", 10, true, 2, 17);
  class Check final : public StepObserver {
   public:
    void on_step(const Sim& e, const StepDigest& d) override {
      std::int64_t delivering = 0;
      std::array<std::int64_t, kNumDirs> by_dir{};
      for (const MoveRecord& m : d.moves) {
        if (m.delivered) ++delivering;
        by_dir[dir_index(m.dir)]++;
        EXPECT_EQ(e.mesh().neighbor(m.from, m.dir), m.to);
      }
      EXPECT_EQ(d.deliveries,
                delivering + static_cast<std::int64_t>(
                                 d.injected_deliveries.size()));
      EXPECT_EQ(by_dir, d.moves_by_dir);
      EXPECT_EQ(d.step, e.step());
      ++steps;
    }
    int steps = 0;
  } check;
  run.engine->add_observer(&check);
  run.engine->prepare();
  run.engine->run(400);
  EXPECT_GT(check.steps, 0);
}

TEST(TelemetryCollector, StrideDoublingKeepsSeriesBoundedAndLossless) {
  TelemetryOptions options;
  options.series_capacity = 8;
  options.sample_every = 4;
  TelemetryCollector collector(options);

  EngineRun run =
      make_run("dimension-order", 12, false, 1, 19, /*monotone=*/true);
  run.engine->add_observer(&collector);
  // Prepare-time (source==dest) deliveries land in the totals but not in
  // any series row; capture them to balance the books below.
  class PrepareDeliveries final : public StepObserver {
   public:
    void on_prepare(const Sim&, const StepDigest& d) override {
      count = d.deliveries;
    }
    void on_step(const Sim&, const StepDigest&) override {}
    std::int64_t count = 0;
  } prepare_deliveries;
  run.engine->add_observer(&prepare_deliveries);
  run.engine->prepare();
  run.engine->run(2000);
  ASSERT_TRUE(run.engine->all_delivered());
  ASSERT_GT(run.engine->step(), Step(8)) << "need enough steps to compact";

  const auto rows = collector.series();
  EXPECT_LE(rows.size(), options.series_capacity + 1);
  EXPECT_GT(collector.series_stride(), Step(1));
  // stride is a power of two
  EXPECT_EQ(collector.series_stride() & (collector.series_stride() - 1), 0);

  Step covered = 0;
  std::int64_t moves = 0, deliveries = 0;
  Step prev_step = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(rows[i].step, prev_step);
    }
    prev_step = rows[i].step;
    if (i + 1 < rows.size()) {
      EXPECT_EQ(rows[i].span, collector.series_stride()) << "row " << i;
    }
    covered += rows[i].span;
    moves += rows[i].moves;
    deliveries += rows[i].deliveries;
  }
  // Compaction merges but never drops: bucket spans tile the run and the
  // sums equal the run totals.
  EXPECT_EQ(covered, run.engine->step());
  EXPECT_EQ(moves, collector.totals().moves);
  EXPECT_EQ(deliveries + prepare_deliveries.count,
            collector.totals().deliveries);
  EXPECT_EQ(collector.totals().deliveries,
            static_cast<std::int64_t>(run.engine->delivered_count()));
  EXPECT_EQ(collector.totals().steps, run.engine->step());

  // Heatmap: sampling happened and no node exceeds the queue bound.
  EXPECT_GT(collector.heat_samples(), 0);
  int peak = 0;
  for (const TelemetryNodeHeat& h : collector.node_heat())
    peak = std::max(peak, h.max);
  EXPECT_LE(peak, run.engine->max_occupancy_seen());
}

TEST(RunnerTelemetry, OptInExportsValidJsonlWithoutBehaviourChange) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mr_telemetry_test").string();
  std::filesystem::remove_all(dir);

  RunSpec spec;
  spec.width = spec.height = 12;
  spec.queue_capacity = 2;
  spec.algorithm = "adaptive-alternate";

  const Mesh mesh = Mesh::square(12);
  const Workload w = random_permutation(mesh, 23);
  const RunResult plain = run_workload(spec, w);

  spec.telemetry.series = true;
  spec.telemetry.profile = true;
  spec.telemetry.export_dir = dir;
  spec.telemetry.slug = "opt in run";
  const RunResult observed = run_workload(spec, w);

  // Telemetry must not perturb the simulation.
  EXPECT_EQ(plain.steps, observed.steps);
  EXPECT_EQ(plain.total_moves, observed.total_moves);
  EXPECT_EQ(plain.max_queue, observed.max_queue);
  EXPECT_EQ(plain.latency.p50, observed.latency.p50);

  ASSERT_TRUE(observed.phase_profile.has_value());
  EXPECT_GT(observed.phase_profile->total_seconds, 0.0);
  EXPECT_EQ(observed.phase_profile->steps, observed.steps);
  EXPECT_FALSE(plain.phase_profile.has_value());

  ASSERT_FALSE(observed.telemetry_path.empty());
  EXPECT_EQ(observed.telemetry_path, dir + "/opt_in_run.jsonl");
  std::string error;
  EXPECT_TRUE(validate_telemetry_jsonl(observed.telemetry_path, &error))
      << error;
  EXPECT_TRUE(std::filesystem::exists(dir + "/opt_in_run_series.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/opt_in_run_heatmap.csv"));
  std::filesystem::remove_all(dir);
}

TEST(TelemetryValidation, RejectsMalformedJsonl) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mr_bad_telemetry.jsonl")
          .string();
  std::string error;

  {
    std::ofstream out(path);
    out << "{\"kind\": \"series\", \"step\": 1}\n";
  }
  EXPECT_FALSE(validate_telemetry_jsonl(path, &error));
  EXPECT_NE(error.find("header"), std::string::npos) << error;

  {
    std::ofstream out(path);
    out << "{\"schema\": \"meshroute-telemetry/1\", \"kind\": \"header\", "
           "\"run\": \"r\", \"algorithm\": \"a\", \"layout\": \"central\", "
           "\"width\": 4, \"height\": 4, \"queue_capacity\": 1, "
           "\"sample_every\": 0, \"series_stride\": 1}\n";
  }
  EXPECT_FALSE(validate_telemetry_jsonl(path, &error));
  EXPECT_NE(error.find("summary"), std::string::npos) << error;

  std::remove(path.c_str());
}

}  // namespace
}  // namespace mr
