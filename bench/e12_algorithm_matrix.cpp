// E12 — cross table: every router × every workload family (the "who wins
// where" summary the paper's introduction frames). Cells show steps (and
// DNF where a central-queue router deadlocks — itself one of the paper's
// points: simple bounded-queue routers are fragile in the worst case).
#include "harness/runner.hpp"
#include "lower_bound/factory.hpp"
#include "routing/registry.hpp"
#include "scenarios.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr::scenarios {

void register_e12(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E12";
  spec.label = "algorithm-matrix";
  spec.title = "router × workload matrix";
  spec.paper_ref = "§1, §7";
  spec.body = [](ScenarioReport& ctx) {
    const int n = 64;
    const Mesh mesh = Mesh::square(n);

    std::vector<std::pair<std::string, Workload>> workloads = {
        {"random perm", random_permutation(mesh, 42)},
        {"transpose", transpose(mesh)},
        {"bit-reversal", bit_reversal(mesh)},
        {"mirror", mirror(mesh)},
        {"rotation n/2", rotation(mesh, n / 2, 0)},
        {"random 2-2", random_hh(mesh, 2, 9)},
    };
    // Adversarial permutation for DX minimal routers (Theorem 14 instance,
    // sized for k=4 ⇒ valid only for n ≥ ~24·36; at n=64 fall back to k=1
    // geometry but run with k=4 queues — still heavily congested). The
    // construction factory re-targets it onto the 64-mesh (top-left).
    const AdversarialInstance adv =
        adversarial_instance("main", 60, 1, "dimension-order");
    workloads.push_back({"corner flood (Thm14 geometry)",
                         retarget(adv.permutation, Mesh::square(60), mesh)});

    bool bounded_never_dnf = true;
    for (const int k : {4, 16}) {
      ctx.note("### queue size k = " + std::to_string(k));
      std::vector<std::string> headers = {"workload"};
      for (const std::string& a : algorithm_names()) headers.push_back(a);
      Table table(headers);
      for (const auto& [name, w] : workloads) {
        table.row().add(name);
        for (const std::string& algorithm : algorithm_names()) {
          RunSpec run_spec;
          run_spec.width = run_spec.height = n;
          run_spec.queue_capacity = k;
          run_spec.algorithm = algorithm;
          run_spec.max_steps = 400000;
          run_spec.stall_limit = 5000;
          const RunResult r = run_workload(run_spec, w);
          if (algorithm == "bounded-dimension-order")
            bounded_never_dnf = bounded_never_dnf && r.all_delivered;
          table.add(r.all_delivered ? std::to_string(r.steps)
                                    : std::string("DNF"));
        }
      }
      ctx.table(table);
    }
    ctx.note(
        "n=64. DNF = store-and-forward deadlock / budget exceeded; the "
        "central-queue routers' fragility at small k versus the bounded "
        "router's uniform completion is the paper's practical point.");
    ctx.check("bounded-dimension-order-never-dnf", bounded_never_dnf);
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
