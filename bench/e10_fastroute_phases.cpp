// E10 — Lemmas 21–32: per-phase budgets of the §6 algorithm. For every
// segment kind at every iteration, compares the measured last useful step
// (the last step in which a packet moved) against the lemma's duration
// budget, and the measured peak per-node staging/active occupancy against
// the lemma's queue bound. FastRouteOracle aborts the run on any lemma
// violation and measures the per-segment activity; this table shows the
// slack.
#include <algorithm>
#include <map>

#include "check/fastroute_oracle.hpp"
#include "fastroute/bounds.hpp"
#include "fastroute/fastroute.hpp"
#include "harness/runner.hpp"
#include "scenarios.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr::scenarios {

void register_e10(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E10";
  spec.label = "fastroute-phases";
  spec.title = "per-phase budgets of the §6 algorithm";
  spec.paper_ref = "Lemmas 21-32, Figures 5-7";
  spec.body = [](ScenarioReport& ctx) {
    const std::int32_t n = ctx.scale() == Scale::Small ? 27 : 81;
    const FastRouteAlgorithm algo;
    FastRouteOracle oracle(n, algo.options());
    RunSpec run;
    run.width = run.height = n;
    run.algorithm = algo.name();
    run.queue_capacity = algo.queue_bound();
    run.stall_limit = 0;
    run.max_steps = oracle.schedule().length + 1;
    RunHooks hooks;
    hooks.step_observers.push_back(&oracle);
    const RunResult r =
        run_workload(run, random_permutation(Mesh::square(n), 5), hooks);
    ctx.check("all-delivered", r.all_delivered);
    if (!r.all_delivered) {
      ctx.note("ERROR: not all packets delivered");
      return;
    }

    // Aggregate segments by (kind, j).
    struct Agg {
      Step budget = 0;
      Step max_last_move = 0;
      std::int64_t moves = 0;
      int peak = 0;
      int count = 0;
    };
    std::map<std::pair<int, int>, Agg> aggs;
    const auto& segments = oracle.schedule().segments;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const auto& seg = segments[i];
      const FastRouteOracle::SegmentStats& st = oracle.stats()[i];
      Agg& a = aggs[{static_cast<int>(seg.kind), seg.j}];
      a.budget = seg.length;
      a.max_last_move = std::max(a.max_last_move, st.last_move_offset);
      a.moves += st.moves;
      a.peak = std::max(a.peak, st.peak_per_node);
      ++a.count;
    }

    FastRouteBounds bounds;
    Table table({"phase", "iter j", "segments", "budget (lemma)",
                 "last useful step", "total moves", "peak/node",
                 "queue bound (lemma)"});
    bool budgets_hold = true;
    for (const auto& [key, a] : aggs) {
      const auto kind = static_cast<FastRouteAlgorithm::Kind>(key.first);
      std::string qbound = "-";
      if (kind == FastRouteAlgorithm::Kind::March)
        qbound = std::to_string(bounds.march_queue_bound());
      if (kind == FastRouteAlgorithm::Kind::SortSmoothEven ||
          kind == FastRouteAlgorithm::Kind::SortSmoothOdd)
        qbound = std::to_string(bounds.sort_smooth_queue_bound());
      if (kind == FastRouteAlgorithm::Kind::Balance) qbound = "2 (Lemma 24)";
      budgets_hold = budgets_hold && a.max_last_move <= a.budget;
      table.row()
          .add(FastRouteAlgorithm::kind_name(kind))
          .add(key.second)
          .add(a.count)
          .add(a.budget)
          .add(a.max_last_move)
          .add(a.moves)
          .add(std::int64_t(a.peak))
          .add(qbound);
    }
    ctx.table(table);
    ctx.note("n = " + std::to_string(n) + "; schedule length = " +
             std::to_string(oracle.schedule().length) +
             " steps; engine peak queue = " + std::to_string(r.max_queue) +
             " (Lemma 28 bound " + std::to_string(algo.queue_bound()) + ").");
    ctx.check("last-useful-step-within-lemma-budget", budgets_hold);
    ctx.check("engine-peak-queue-under-lemma28",
              r.max_queue <= algo.queue_bound());
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
