// E02 — Lemmas 1–8 (Figure 2): i-box escape discipline of the construction.
//
// Runs the §3 construction and tallies, per class i, how many N_i/E_i
// packets leave the i-box before the window ((i−1)·dn, i·dn] opens
// (Lemma 1 forbids any), inside it (Lemma 2 caps at one of each type per
// step, so ≤ dn over the window), and after it closes (unconstrained).
// Also reports the Corollary 9 census of class-⌊l⌋ packets still confined
// at step ⌊l⌋·dn.
#include <algorithm>
#include <vector>

#include "lower_bound/main_construction.hpp"
#include "routing/registry.hpp"
#include "scenarios.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"

namespace mr::scenarios {
namespace {

struct EscapeTally : StepObserver {
  const MainGeometry* geo = nullptr;
  std::int32_t dn = 0;
  std::vector<std::int64_t> in_window_n, in_window_e, early, late;
  std::vector<std::int64_t> step_n, step_e;
  std::int64_t max_per_step = 0;

  EscapeTally(const MainGeometry& g, std::int32_t dn_steps) {
    geo = &g;
    dn = dn_steps;
    const auto classes = static_cast<std::size_t>(g.classes()) + 1;
    in_window_n.assign(classes, 0);
    in_window_e.assign(classes, 0);
    early.assign(classes, 0);
    late.assign(classes, 0);
    step_n.assign(classes, 0);
    step_e.assign(classes, 0);
  }

  void on_step(const Sim& e, const StepDigest& d) override {
    for (const MoveRecord& m : d.moves) tally(e, m);
    std::fill(step_n.begin(), step_n.end(), 0);
    std::fill(step_e.begin(), step_e.end(), 0);
  }

  void tally(const Sim& e, const MoveRecord& m) {
    const Packet& pk = e.packet(m.packet);
    const PacketClass cls = geo->classify(e.mesh().coord_of(pk.source),
                                          e.mesh().coord_of(pk.dest));
    if (cls.type == ClassType::None) return;
    if (!geo->in_box(e.mesh().coord_of(m.from), cls.i) ||
        geo->in_box(e.mesh().coord_of(m.to), cls.i))
      return;
    const Step t = e.step();
    if (t <= (cls.i - 1) * dn) {
      ++early[cls.i];
    } else if (t <= cls.i * dn) {
      (cls.type == ClassType::N ? in_window_n : in_window_e)[cls.i]++;
      auto& per_step = cls.type == ClassType::N ? step_n : step_e;
      max_per_step = std::max(max_per_step, ++per_step[cls.i]);
    } else {
      ++late[cls.i];
    }
  }
};

}  // namespace

void register_e02(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.id = "E02";
  spec.label = "box-escape";
  spec.title = "i-box escape discipline during the construction";
  spec.paper_ref = "Lemmas 1-8, Figure 2";
  spec.body = [](ScenarioReport& ctx) {
    const int n = ctx.scale() == Scale::Small ? 120 : 216;
    const int k = 1;
    const MainLbParams par = main_lb_params(n, k);
    const Mesh mesh = Mesh::square(n);

    bool no_early_escapes = true;
    bool one_escape_per_step = true;
    bool corollary9_floor = true;
    for (const std::string& algorithm : dx_minimal_algorithm_names()) {
      MainConstruction construction(mesh, par);
      EscapeTally tally(construction.geometry(), par.dn);
      const auto result = construction.run_construction(algorithm, k, &tally);

      ctx.note("### algorithm: " + algorithm + "  (n=" + std::to_string(n) +
               ", k=" + std::to_string(k) +
               ", dn=" + std::to_string(par.dn) + ")");
      Table table({"class i", "escapes before window (Lemma 1: 0)",
                   "N_i escapes in window (<= dn)",
                   "E_i escapes in window (<= dn)", "escapes after window"});
      for (std::int64_t i = 1; i <= par.classes; ++i) {
        table.row()
            .add(i)
            .add(tally.early[i])
            .add(tally.in_window_n[i])
            .add(tally.in_window_e[i])
            .add(tally.late[i]);
        no_early_escapes = no_early_escapes && tally.early[i] == 0;
      }
      ctx.table(table);

      Table summary({"max escapes/step/type (Lemma 2: 1)", "exchanges",
                     "class-l packets still boxed", "Cor.9 floor 2(p-dn)",
                     "undelivered at l*dn"});
      summary.row()
          .add(tally.max_per_step)
          .add(std::uint64_t(result.exchanges))
          .add(result.last_class_in_box)
          .add(2 * (par.p - par.dn))
          .add(std::uint64_t(result.undelivered));
      ctx.table(summary);
      one_escape_per_step = one_escape_per_step && tally.max_per_step <= 1;
      corollary9_floor = corollary9_floor &&
                         result.last_class_in_box >= 2 * (par.p - par.dn);
    }
    ctx.check("lemma1-no-escapes-before-window", no_early_escapes);
    ctx.check("lemma2-at-most-one-escape-per-step-per-type",
              one_escape_per_step);
    ctx.check("corollary9-confined-census-floor", corollary9_floor);
  };
  registry.add(std::move(spec));
}

}  // namespace mr::scenarios
