// E08 — Theorem 15: the bounded-queue dimension-order router delivers any
// permutation in O(n²/k + n); together with the §5 lower bound (E04) the
// bound is tight, Θ(n²/k).
//
// For each (n, k) the router runs on (a) its own adversarial permutation
// from the §5 construction and (b) random permutations; the table reports
// steps / (n²/k + n), which should be bounded above by a modest constant —
// and, on the adversarial instance, bounded BELOW away from zero.
#include "harness/runner.hpp"
#include "lower_bound/dim_order_construction.hpp"
#include "scenarios.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr::scenarios {

void register_e08(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E08";
  spec.label = "theorem15-upper";
  spec.title = "Theorem 15 upper bound (and tightness vs E04)";
  spec.paper_ref = "Theorem 15, §5";
  spec.body = [](ScenarioReport& ctx) {
    std::vector<std::pair<int, int>> sizes = {{60, 1},  {120, 1}, {216, 1},
                                              {120, 2}, {216, 2}, {216, 4},
                                              {216, 8}};
    if (ctx.scale() == Scale::Small) sizes = {{60, 1}, {120, 1}, {120, 2}};
    if (ctx.scale() == Scale::Large) sizes.push_back({432, 1});

    Table table({"n", "k", "workload", "steps", "steps/(n^2/k + n)",
                 "max queue", "delivered"});
    bool all_delivered = true;
    bool ratio_bounded = true;
    for (const auto& [n, k] : sizes) {
      const double budget = double(n) * n / k + n;
      // (a) adversarial permutation from the §5 construction, sized for the
      // router's 4k per-node buffering.
      const DimOrderLbParams par = dim_order_lb_params(n, 4 * k);
      if (par.valid) {
        const Mesh mesh = Mesh::square(n);
        DimOrderConstruction construction(mesh, par);
        auto r = construction.verify_replay("bounded-dimension-order", k);
        all_delivered = all_delivered && r.replay_all_delivered;
        ratio_bounded =
            ratio_bounded && double(r.replay_total_steps) / budget <= 4.0;
        table.row()
            .add(n)
            .add(k)
            .add("adversarial (E04)")
            .add(r.replay_total_steps)
            .add(double(r.replay_total_steps) / budget, 3)
            .add("-")
            .add(r.replay_all_delivered ? "yes" : "NO");
      }
      // (b) random permutations.
      RunSpec run_spec;
      run_spec.width = run_spec.height = n;
      run_spec.queue_capacity = k;
      run_spec.algorithm = "bounded-dimension-order";
      const Mesh mesh = Mesh::square(n);
      const RunResult r =
          ctx.run("random n=" + std::to_string(n) + " k=" + std::to_string(k),
                  run_spec, random_permutation(mesh, 1234 + n + k));
      all_delivered = all_delivered && r.all_delivered;
      ratio_bounded = ratio_bounded && double(r.steps) / budget <= 4.0;
      table.row()
          .add(n)
          .add(k)
          .add("random permutation")
          .add(r.steps)
          .add(double(r.steps) / budget, 3)
          .add(std::int64_t(r.max_queue))
          .add(r.all_delivered ? "yes" : "NO");
    }
    ctx.table(table);
    ctx.note(
        "Tightness: on adversarial inputs steps/(n^2/k+n) is bounded below "
        "(lower bound, E04) and above (Theorem 15) by constants -> Θ(n²/k).");
    ctx.check("theorem15-all-delivered", all_delivered);
    ctx.check("theorem15-steps-within-4x-budget", ratio_bounded);
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
