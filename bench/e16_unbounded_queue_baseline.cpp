// E16 — §1.1 baseline: with UNBOUNDED queues, greedy dimension-order
// routing with the farthest-first priority routes every permutation in
// 2n−2 steps (Leighton [16, pp.159–162]) — but the queues it needs grow
// with n. This is precisely the trade-off the paper attacks: bounding k
// forces either Ω(n²/k) (dimension order, E04/E08) or the §6 machinery
// (E09).
#include "harness/runner.hpp"
#include "scenarios.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr::scenarios {

void register_e16(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E16";
  spec.label = "unbounded-queue-baseline";
  spec.title = "unbounded-queue dimension-order baseline (2n-2)";
  spec.paper_ref = "§1.1, Leighton [16]";
  spec.body = [](ScenarioReport& ctx) {
    std::vector<int> ns = {16, 32, 64, 128};
    if (ctx.scale() == Scale::Small) ns = {16, 32};
    if (ctx.scale() == Scale::Large) ns.push_back(256);

    Table table({"n", "workload", "steps", "2n-2", "steps <= 2n-2",
                 "max queue (grows with n!)"});
    bool within_2n_minus_2 = true;
    for (const int n : ns) {
      const Mesh mesh = Mesh::square(n);
      // row-to-column: every node of row 0 sends to a distinct row of column
      // n/2 — all packets turn at node (n/2, 0), whose queue grows with n.
      Workload row_to_column;
      for (std::int32_t c = 0; c < n; ++c)
        row_to_column.push_back(
            Demand{mesh.id_of(c, 0), mesh.id_of(n / 2, c), 0});
      const std::vector<std::pair<std::string, Workload>> workloads = {
          {"random perm", random_permutation(mesh, 77)},
          {"transpose", transpose(mesh)},
          {"mirror", mirror(mesh)},
          {"row-to-column", row_to_column},
      };
      for (const auto& [name, w] : workloads) {
        RunSpec run_spec;
        run_spec.width = run_spec.height = n;
        run_spec.queue_capacity = n * n;  // effectively unbounded
        run_spec.algorithm = "farthest-first";
        const RunResult r =
            ctx.run(name + " n=" + std::to_string(n), run_spec, w);
        const bool ok = r.all_delivered && r.steps <= 2 * n - 2;
        within_2n_minus_2 = within_2n_minus_2 && ok;
        table.row()
            .add(n)
            .add(name)
            .add(r.steps)
            .add(std::int64_t(2 * n - 2))
            .add(ok ? "yes" : "NO")
            .add(std::int64_t(r.max_queue));
      }
    }
    ctx.table(table);
    ctx.note(
        "The classic O(n) algorithm exists — at the price of Θ(n) queues. "
        "Compare the max-queue column with k <= 8 in E08 and the constant "
        "834 bound of E09.");
    ctx.check("leighton-2n-minus-2-baseline", within_2n_minus_2);
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
