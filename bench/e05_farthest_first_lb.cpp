// E05 — §5: the Ω(n²/k) lower bound for dimension-order routing with the
// farthest-first outqueue policy (NOT destination-exchangeable — it reads
// full destination addresses — so it gets its own construction with the
// westernmost-partner exchange rule).
#include "lower_bound/farthest_first_construction.hpp"
#include "scenarios.hpp"

namespace mr::scenarios {

void register_e05(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E05";
  spec.label = "farthest-first-lb";
  spec.title = "farthest-first lower bound";
  spec.paper_ref = "§5 'Dimension Order Routing', Figure 4 (right)";
  spec.body = [](ScenarioReport& ctx) {
    // n = 60 and 120 make no exchange at k = 1; n = 108 does, so every
    // scale exercises the westernmost-partner rule.
    std::vector<std::pair<int, int>> sizes = {
        {60, 1}, {108, 1}, {120, 1}, {216, 1}, {120, 2}, {216, 2}};
    if (ctx.scale() == Scale::Small) sizes = {{60, 1}, {108, 1}, {120, 1}};
    if (ctx.scale() == Scale::Large) sizes.push_back({432, 1});

    Table table({"n", "k", "classes", "exchanges", "certified", "measured",
                 "meas*k/n^2", "row order ok", "stepwise equal", "final equal",
                 "undelivered at l*dn"});
    bool k1_exact = true;       // k = 1: the paper's claim holds verbatim
    bool k1_exchanged = false;  // ...on at least one k = 1 row that exchanges
    bool all_undelivered = true;  // every instance: the bound's conclusion
    for (const auto& [n, k] : sizes) {
      const FarthestFirstLbParams par = farthest_first_lb_params(n, k);
      if (!par.valid) continue;
      const Mesh mesh = Mesh::square(n);
      FarthestFirstConstruction construction(mesh, par);
      const auto r = construction.verify_replay("farthest-first", k);
      const double n2k = double(n) * n / double(k);
      if (k == 1) {
        k1_exact = k1_exact && r.construction.row_order_ok &&
                   r.stepwise_match && r.final_match;
        k1_exchanged = k1_exchanged || r.construction.exchanges > 0;
      }
      all_undelivered = all_undelivered && r.undelivered_at_certified >= 1;
      table.row()
          .add(n)
          .add(k)
          .add(par.classes)
          .add(std::uint64_t(r.construction.exchanges))
          .add(par.certified_steps)
          .add(r.replay_total_steps)
          .add(double(r.replay_total_steps) / n2k, 4)
          .add(r.construction.row_order_ok ? "yes" : "NO")
          .add(r.stepwise_match ? "yes" : "no")
          .add(r.final_match ? "yes" : "NO")
          .add(std::uint64_t(r.undelivered_at_certified));
    }
    ctx.table(table);
    ctx.note(
        "Note: farthest-first is not destination-exchangeable, so stepwise "
        "destination-less equality is not implied by Lemma 10; the paper's "
        "claim ('it is not hard to see') is that this exchange rule "
        "preserves behaviour, which 'final equal' verifies. At k = 1 it "
        "holds exactly. At k >= 2 two packets can share a node and a "
        "same-step arrival can land west of an exchanged mover, breaking "
        "the literal row-ordering invariant and exact replay — yet the "
        "bound's conclusion (undelivered packets at l*dn) still held in "
        "every measured run. See EXPERIMENTS.md.");
    ctx.check("k1-exact-replay-and-row-order", k1_exact && k1_exchanged);
    ctx.check("undelivered-at-certified-every-instance", all_undelivered);
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
