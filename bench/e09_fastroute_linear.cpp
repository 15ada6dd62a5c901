// E09 — Theorem 34: the §6 minimal adaptive algorithm routes any
// permutation in O(n) steps with O(1)-size queues. steps/n should stay
// bounded as n grows (against the Theorem's 972n / improved 564n budgets),
// and peak queue occupancy must stay below the Lemma 28 constant (834,
// improved 222 for the active phases) — far below the Θ(n) queues the
// classic 2n−2 dimension-order algorithm needs.
//
// For contrast, the Theorem 15 router (Θ(n²/k)) runs the same workloads:
// the linear-vs-quadratic crossover is the paper's headline trade-off.
#include "check/fastroute_oracle.hpp"
#include "fastroute/fastroute.hpp"
#include "harness/runner.hpp"
#include "scenarios.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr::scenarios {
namespace {

/// One §6 run to the end of its schedule, Lemmas 29–32 checked by the
/// oracle.
RunResult run_fast(std::int32_t n, const Workload& w, bool improved) {
  const FastRouteAlgorithm algo(improved
                                    ? FastRouteAlgorithm::Options::improved()
                                    : FastRouteAlgorithm::Options::baseline());
  FastRouteOracle oracle(n, algo.options());
  RunSpec spec;
  spec.width = spec.height = n;
  spec.algorithm = algo.name();
  spec.queue_capacity = algo.queue_bound();
  spec.stall_limit = 0;
  spec.max_steps = oracle.schedule().length + 1;
  RunHooks hooks;
  hooks.step_observers.push_back(&oracle);
  return run_workload(spec, w, hooks);
}

}  // namespace

void register_e09(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E09";
  spec.label = "fastroute-linear";
  spec.title = "O(n)-time, O(1)-queue minimal adaptive routing";
  spec.paper_ref = "Theorem 34, §6";
  spec.body = [](ScenarioReport& ctx) {
    std::vector<std::int32_t> ns = {27, 81};
    if (ctx.scale() == Scale::Small) ns = {27};
    if (ctx.scale() == Scale::Large) ns.push_back(243);

    Table table({"n", "workload", "variant", "steps", "steps/n",
                 "bound steps/n", "max queue", "queue bound", "delivered"});
    bool all_delivered = true;
    bool within_bounds = true;
    for (const std::int32_t n : ns) {
      const Mesh mesh = Mesh::square(n);
      const std::vector<std::pair<std::string, Workload>> workloads = {
          {"random permutation", random_permutation(mesh, 21)},
          {"transpose", transpose(mesh)},
          {"mirror", mirror(mesh)},
      };
      for (const auto& [name, w] : workloads) {
        const RunResult base = run_fast(n, w, /*improved=*/false);
        all_delivered = all_delivered && base.all_delivered;
        within_bounds = within_bounds && base.steps <= Step(972) * n &&
                        base.max_queue <= 834;
        table.row()
            .add(std::int64_t(n))
            .add(name)
            .add("q=408")
            .add(base.steps)
            .add(double(base.steps) / n, 1)
            .add(std::int64_t(972))
            .add(std::int64_t(base.max_queue))
            .add(std::int64_t(834))
            .add(base.all_delivered ? "yes" : "NO");
        const RunResult improved = run_fast(n, w, /*improved=*/true);
        all_delivered = all_delivered && improved.all_delivered;
        within_bounds = within_bounds && improved.steps <= Step(564) * n &&
                        improved.max_queue <= 834;
        table.row()
            .add(std::int64_t(n))
            .add(name)
            .add("improved")
            .add(improved.steps)
            .add(double(improved.steps) / n, 1)
            .add(std::int64_t(564))
            .add(std::int64_t(improved.max_queue))
            .add(std::int64_t(834))
            .add(improved.all_delivered ? "yes" : "NO");
      }
      // Contrast: the Theorem 15 router on the same random permutation.
      RunSpec run_spec;
      run_spec.width = run_spec.height = n;
      run_spec.queue_capacity = 4;
      run_spec.algorithm = "bounded-dimension-order";
      const RunResult r = run_workload(run_spec, random_permutation(mesh, 21));
      all_delivered = all_delivered && r.all_delivered;
      table.row()
          .add(std::int64_t(n))
          .add("random permutation")
          .add("Thm15 k=4")
          .add(r.steps)
          .add(double(r.steps) / n, 1)
          .add("-")
          .add(std::int64_t(r.max_queue))
          .add(std::int64_t(4))
          .add(r.all_delivered ? "yes" : "NO");
      ctx.record("Thm15 k=4 random n=" + std::to_string(n), r);
    }
    ctx.table(table);
    ctx.note(
        "The §6 schedule is a fixed worst-case budget, so measured steps "
        "equal the schedule length; steps/n converges from below to ~904 "
        "(baseline) / ~500 (improved) as the geometric iteration sum fills "
        "in — under the 972n / 564n bounds, and O(n) by construction. Queues "
        "stay two orders of magnitude under the Θ(n) of the classic "
        "algorithm (E16).");
    ctx.check("theorem34-all-delivered", all_delivered);
    ctx.check("theorem34-step-and-queue-bounds", within_bounds);
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
