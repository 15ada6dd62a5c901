#include "lower_bound/factory.hpp"

#include "core/assert.hpp"
#include "lower_bound/dim_order_construction.hpp"
#include "lower_bound/main_construction.hpp"

namespace mr {

std::vector<std::string> adversarial_family_names() {
  return {"main", "dim-order", "torus"};
}

AdversarialInstance adversarial_instance(const std::string& family,
                                         std::int32_t n, int k,
                                         const std::string& algorithm) {
  AdversarialInstance out;
  out.width = n;
  out.height = n;
  auto build = [&](const auto& construction) {
    ConstructionRun run = construction.run_construction(algorithm, k);
    out.valid = true;
    out.permutation = std::move(run.constructed);
    out.certified_steps = construction.certified_steps();
    out.classes = construction.num_classes();
    out.exchanges = run.exchanges;
    return out;
  };
  if (family == "main") {
    const MainLbParams par = main_lb_params(n, k);
    if (!par.valid) return out;
    return build(MainConstruction(Mesh::square(n), par));
  }
  if (family == "dim-order") {
    const DimOrderLbParams par = dim_order_lb_params(n, k);
    if (!par.valid) return out;
    return build(DimOrderConstruction(Mesh::square(n), par));
  }
  if (family == "torus") {
    // §5c: the mesh construction occupies the m×m quadrant (columns and
    // rows [0, m)) of a 2m×2m torus. Every quadrant-internal shortest path
    // avoids the wrap links, so the adversary's argument — and the
    // certified step count — carries over unchanged.
    out.topology = "torus";
    if (n % 2 != 0) return out;
    const MainLbParams par = main_lb_params(n / 2, k);
    if (!par.valid) return out;
    return build(MainConstruction(Mesh::square(n, /*torus=*/true), par));
  }
  MR_REQUIRE_MSG(false, "unknown adversarial family '" << family << "'");
  return out;
}

Workload retarget(const Workload& w, const Topology& from,
                  const Topology& to) {
  MR_REQUIRE(to.width() >= from.width() && to.height() >= from.height());
  Workload out;
  out.reserve(w.size());
  for (const Demand& d : w) {
    const Coord s = from.coord_of(d.source);
    const Coord t = from.coord_of(d.dest);
    out.push_back(
        Demand{to.id_of(s.col, s.row), to.id_of(t.col, t.row), d.injected_at});
  }
  return out;
}

}  // namespace mr
