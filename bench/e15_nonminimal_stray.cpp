// E15 — §5 "Nonminimal extensions": destination-exchangeable routers that
// may stray up to δ nodes beyond the shortest-path rectangle are bounded
// by Ω(n²/((δ+1)³k²)) — extra freedom weakens the adversary polynomially
// in δ but cannot defeat it.
//
// The full δ-adapted exchange construction is out of scope (the paper only
// sketches it); this experiment measures the weakening empirically: the
// δ = 0 Theorem 14 permutation is routed by StrayRouter(δ) for growing δ.
// The certified bound applies verbatim at δ = 0; for δ > 0 the measured
// times show how much (or little) nonminimal freedom buys on the same
// congestion pattern, and the engine enforces the rectangle+δ containment
// throughout.
#include "harness/runner.hpp"
#include "lower_bound/factory.hpp"
#include "scenarios.hpp"

namespace mr::scenarios {

void register_e15(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E15";
  spec.label = "nonminimal-stray";
  spec.title =
      "nonminimal (delta-stray) routing on the adversarial permutation";
  spec.paper_ref = "§5 'Nonminimal extensions'";
  spec.body = [](ScenarioReport& ctx) {
    const int n = ctx.scale() == Scale::Small ? 60 : 120;
    const int k = 1;

    // Adversarial permutation against the δ = 0 stray router (which is
    // exactly a greedy DX minimal router), via the construction factory.
    const AdversarialInstance adv =
        adversarial_instance("main", n, k, "stray-0");

    Table table({"delta", "router", "steps on adversarial", "delivered",
                 "vs delta=0", "certified LB (delta=0)"});
    double base_steps = 0;
    bool all_delivered = true;
    bool certificate_holds = true;
    for (const int delta : {0, 1, 2, 4, 8}) {
      RunSpec run_spec;
      run_spec.width = run_spec.height = n;
      run_spec.queue_capacity = k;
      run_spec.algorithm = "stray-" + std::to_string(delta);
      run_spec.max_steps = 400000;
      run_spec.stall_limit = 20000;
      const RunResult r =
          ctx.run(run_spec.algorithm, run_spec, adv.permutation);
      if (delta == 0) {
        base_steps = double(r.steps);
        certificate_holds = r.steps >= adv.certified_steps;
      }
      all_delivered = all_delivered && r.all_delivered;
      table.row()
          .add(delta)
          .add(run_spec.algorithm)
          .add(r.steps)
          .add(r.all_delivered ? "yes" : "NO")
          .add(double(r.steps) / base_steps, 3)
          .add(adv.certified_steps);
    }
    ctx.table(table);
    ctx.note(
        "delta=0 is destination-exchangeable minimal adaptive, so Theorem 14 "
        "certifies >= " +
        std::to_string(adv.certified_steps) +
        " steps; the Omega(n^2/((delta+1)^3 k^2)) extension predicts only "
        "polynomial-in-delta relief, which the measured column tracks.");
    ctx.check("all-strays-deliver", all_delivered);
    ctx.check("theorem14-certificate-at-delta-0", certificate_holds);
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
