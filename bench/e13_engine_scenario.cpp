// E13: engine stepping throughput — every registry router on a random
// permutation, plus a sequential-vs-sharded determinism table. Not a
// paper experiment; it establishes that the laptop-scale sweeps in
// E01–E12 are feasible. Its machine-readable record is the e13.json that
// `meshroute_bench --run=E13 --json=DIR` writes; the performance record
// is perfbench (BENCHMARK.json).
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "routing/registry.hpp"
#include "scenarios.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr::scenarios {
namespace {

constexpr int kQueueCapacity = 2;

struct RunStats {
  std::string router;
  std::string layout;
  std::int32_t n = 0;
  std::int64_t steps = 0;
  std::int64_t moves = 0;
  double moves_per_sec = 0;
  std::size_t delivered = 0;
  std::size_t packets = 0;
  bool stalled = false;
};

/// Central-queue routers get monotone (deadlock-free) traffic so the sweep
/// measures engine throughput, not deadlock spinning; the per-inlink
/// router takes the full permutation.
Workload workload_for(const Mesh& mesh, bool per_inlink) {
  Workload w;
  for (const Demand& d : random_permutation(mesh, 42)) {
    const Coord s = mesh.coord_of(d.source);
    const Coord t = mesh.coord_of(d.dest);
    if (per_inlink || (t.col >= s.col && t.row >= s.row)) w.push_back(d);
  }
  return w;
}

/// One timed engine run of `name` on an n×n mesh with `shards` row bands
/// on as many threads, for `max_steps` steps (0 = drain). Sharded runs
/// produce bit-identical routing results; only the wall clock changes.
RunStats run_once(const std::string& name, std::int32_t n, int shards = 1,
                  std::int64_t max_steps = 0) {
  const Mesh mesh = Mesh::square(n);
  const bool per_inlink =
      make_algorithm(name)->queue_layout() == QueueLayout::PerInlink;
  RunStats r;
  r.router = name;
  r.layout = per_inlink ? "per-inlink" : "central";
  r.n = n;
  Engine::Config config;
  config.queue_capacity = kQueueCapacity;
  config.shards = shards;
  config.threads = shards;
  Engine engine(mesh, config, [&] { return make_algorithm(name); });
  for (const Demand& d : workload_for(mesh, per_inlink))
    engine.add_packet(d.source, d.dest, d.injected_at);
  engine.prepare();
  const auto t0 = std::chrono::steady_clock::now();
  r.steps = engine.run(max_steps > 0 ? max_steps : 200000);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  r.moves = engine.total_moves();
  r.moves_per_sec = seconds > 0 ? static_cast<double>(r.moves) / seconds : 0;
  r.delivered = engine.delivered_count();
  r.packets = engine.num_packets();
  r.stalled = engine.stalled();
  return r;
}

}  // namespace

void register_e13(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E13";
  spec.label = "engine-throughput";
  spec.title = "engine stepping throughput";
  spec.paper_ref = "not a paper claim; simulator hot-path record";
  spec.body = [](ScenarioReport& ctx) {
    const bool smoke = ctx.scale() == Scale::Small;
    const std::vector<std::int32_t> sizes =
        smoke ? std::vector<std::int32_t>{8}
              : std::vector<std::int32_t>{32, 64, 120};
    const int reps = smoke ? 1 : 3;

    Table table({"router", "layout", "n", "steps", "moves", "Kmoves/s",
                 "delivered", "stalled"});
    bool none_stalled = true;
    bool all_delivered = true;
    for (const std::string& name : algorithm_names()) {
      for (std::int32_t n : sizes) {
        RunStats best;
        for (int rep = 0; rep < reps; ++rep) {
          RunStats r = run_once(name, n);
          if (rep == 0 || r.moves_per_sec > best.moves_per_sec) best = r;
        }
        none_stalled = none_stalled && !best.stalled;
        all_delivered = all_delivered && best.delivered == best.packets;
        table.row()
            .add(best.router)
            .add(best.layout)
            .add(std::int64_t(best.n))
            .add(best.steps)
            .add(best.moves)
            .add(best.moves_per_sec / 1e3, 2)
            .add(std::to_string(best.delivered) + "/" +
                 std::to_string(best.packets))
            .add(best.stalled ? "STALLED" : "no");
      }
    }
    ctx.table(table);
    ctx.note("Queue capacity " + std::to_string(kQueueCapacity) +
             ", best of " + std::to_string(reps) +
             "; only Kmoves/s is timing-sensitive — steps and moves are "
             "deterministic. Engine performance is tracked by perfbench "
             "(BENCHMARK.json), not by this table.");
    ctx.check("no-router-stalled", none_stalled);
    ctx.check("monotone-traffic-all-delivered", all_delivered);

    // Sharded-engine determinism at benchmark scale (DESIGN.md §9): the
    // same run in sequential and sharded mode must agree on every
    // deterministic column. The speedup itself is machine-dependent and
    // only meaningful on a multi-core runner, so it is reported, not
    // checked.
    const std::int32_t pn = smoke ? 8 : 120;
    const std::int64_t budget = smoke ? 0 : 64;
    const RunStats seq = run_once("bounded-dimension-order", pn, 1, budget);
    Table ptable({"mode", "steps", "moves", "delivered", "Kmoves/s"});
    ptable.row()
        .add("sequential")
        .add(seq.steps)
        .add(seq.moves)
        .add(std::int64_t(seq.delivered))
        .add(seq.moves_per_sec / 1e3, 2);
    bool par_identical = true;
    for (const int shards : {4, 8}) {
      const RunStats par =
          run_once("bounded-dimension-order", pn, shards, budget);
      par_identical = par_identical && par.steps == seq.steps &&
                      par.moves == seq.moves &&
                      par.delivered == seq.delivered;
      ptable.row()
          .add("shards=" + std::to_string(shards) + " threads=" +
               std::to_string(shards))
          .add(par.steps)
          .add(par.moves)
          .add(std::int64_t(par.delivered))
          .add(par.moves_per_sec / 1e3, 2);
    }
    ctx.table(ptable);
    ctx.check("sharded-engine-deterministic", par_identical);
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
