// E11 — §1.1 context (Leighton's average case): on RANDOM permutations the
// greedy routers finish in ≈ 2n + o(n) steps with tiny queues — the
// worst-case Ω-instances of E01/E04 are genuinely adversarial, not typical.
// Multiple seeds per point; independent runs are spread across threads.
#include <algorithm>

#include "core/stats.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "scenarios.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr::scenarios {

void register_e11(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E11";
  spec.label = "average-case";
  spec.title = "average case on random permutations";
  spec.paper_ref = "§1.1 (Leighton [17] context)";
  spec.body = [](ScenarioReport& ctx) {
    std::vector<int> ns = {32, 64, 128};
    if (ctx.scale() == Scale::Small) ns = {32, 64};
    if (ctx.scale() == Scale::Large) ns.push_back(256);
    const int seeds = 5;

    Table table({"algorithm", "n", "k", "mean steps", "steps/n",
                 "max queue (worst seed)", "latency p50 (mean)", "all ok"});
    struct Case {
      std::string algorithm;
      int k;
    };
    // Central-queue routers get an ample k: Leighton's average-case claim is
    // that on random traffic the queues never GROW — the observed peak (a
    // handful of packets, vs k) is the reproduced quantity. The bounded
    // router additionally shows tiny hard queues already suffice.
    const std::vector<Case> cases = {{"bounded-dimension-order", 1},
                                     {"bounded-dimension-order", 4},
                                     {"dimension-order", 32},
                                     {"adaptive-alternate", 32},
                                     {"greedy-match", 32},
                                     {"farthest-first", 32}};
    // --seed overrides the historical base seed 1000; per-run seeds stay
    // spread the same way so a fixed base reproduces the published table.
    const std::uint64_t base_seed = ctx.seed_or(1000);
    bool no_deadlock = true;
    for (const Case& c : cases) {
      for (const int n : ns) {
        const Mesh mesh = Mesh::square(n);
        const auto results = sweep<RunResult>(seeds, [&](std::size_t s) {
          RunSpec run_spec;
          run_spec.width = run_spec.height = n;
          run_spec.queue_capacity = c.k;
          run_spec.algorithm = c.algorithm;
          return run_workload(run_spec,
                              random_permutation(mesh, base_seed + 13 * s));
        });
        RunningStat steps, p50;
        int max_queue = 0;
        bool ok = true;
        for (const RunResult& r : results) {
          steps.add(double(r.steps));
          p50.add(double(r.latency.p50));
          max_queue = std::max(max_queue, r.max_queue);
          ok = ok && r.all_delivered;
        }
        no_deadlock = no_deadlock && ok;
        table.row()
            .add(c.algorithm)
            .add(n)
            .add(c.k)
            .add(steps.mean(), 1)
            .add(steps.mean() / n, 2)
            .add(std::int64_t(max_queue))
            .add(p50.mean(), 1)
            .add(ok ? "yes" : "NO (deadlock)");
      }
    }
    ctx.table(table);
    ctx.note(
        "Central-queue routers run with ample k=32; the reproduced claim is "
        "the observed peak queue staying at a handful of packets (Leighton "
        "[17]: <= 4 w.h.p.) and steps/n ≈ 2 (the 2n + o(n) average case). "
        "Hard small k deadlocks saturated central queues — see the "
        "CentralQueueDeadlock test and E12.");
    ctx.check("no-deadlock-on-random-traffic", no_deadlock);
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
