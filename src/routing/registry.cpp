#include "routing/registry.hpp"

#include "core/assert.hpp"
#include "core/parse.hpp"
#include "fastroute/fastroute.hpp"
#include "routing/adaptive.hpp"
#include "routing/bounded_dimension_order.hpp"
#include "routing/dimension_order.hpp"
#include "routing/emps.hpp"
#include "routing/farthest_first.hpp"
#include "routing/stray.hpp"
#include "routing/west_first.hpp"

namespace mr {

const std::vector<AlgorithmInfo>& algorithm_catalog() {
  static const std::vector<AlgorithmInfo> catalog = {
      {"dimension-order",
       "greedy dimension-order (row then column), the §5 baseline",
       QueueLayout::Central, true},
      {"adaptive-alternate",
       "minimal adaptive, alternates row/column moves when both profit",
       QueueLayout::Central, true},
      {"greedy-match",
       "minimal adaptive, greedy packet-to-outlink matching per step",
       QueueLayout::Central, true},
      {"west-first",
       "west-first turn model: all west hops first, then adaptive",
       QueueLayout::Central, true},
      {"stray-2",
       "δ-stray nonminimal: deflects blocked packets ≤ δ off-rectangle (§5)",
       QueueLayout::Central, false},
      {"farthest-first",
       "farthest-distance-first priority, non-exchangeable reference",
       QueueLayout::Central, false},
      {"bounded-dimension-order",
       "Theorem 15 router: per-inlink queues, straight-priority outqueue",
       QueueLayout::PerInlink, false},
      {"emps",
       "Even–Medina–Patt-Shamir online grid router: one-bend paths, "
       "per-link buffers, farthest-to-go line routing",
       QueueLayout::PerInlink, false},
  };
  return catalog;
}

AlgorithmSpec parse_algorithm_spec(const std::string& name) {
  AlgorithmSpec spec;
  spec.name = name;
  if (name.rfind("stray-", 0) != 0) return spec;
  // The whole suffix must be one decimal int; any other suffix leaves the
  // name as given, which make_algorithm rejects as unknown.
  int bound = 0;
  if (!parse_decimal(std::string_view(name).substr(6), &bound)) return spec;
  spec.name = "stray";
  spec.params.stray_bound = bound;
  return spec;
}

std::unique_ptr<Algorithm> make_algorithm(const AlgorithmSpec& spec) {
  const std::string& name = spec.name;
  if (name == "dimension-order")
    return std::make_unique<DimensionOrderRouter>();
  if (name == "adaptive-alternate")
    return std::make_unique<AdaptiveAlternateRouter>();
  if (name == "greedy-match") return std::make_unique<GreedyMatchRouter>();
  if (name == "west-first") return std::make_unique<WestFirstRouter>();
  if (name == "farthest-first") return std::make_unique<FarthestFirstRouter>();
  if (name == "emps") return std::make_unique<EmpsRouter>();
  if (name == "bounded-dimension-order")
    return std::make_unique<BoundedDimensionOrderRouter>();
  if (name == "fastroute") return std::make_unique<FastRouteAlgorithm>();
  if (name == "fastroute-improved")
    return std::make_unique<FastRouteAlgorithm>(
        FastRouteAlgorithm::Options::improved());
  if (name.rfind("stray-", 0) == 0) {
    const AlgorithmSpec parsed = parse_algorithm_spec(name);
    MR_REQUIRE_MSG(parsed.name == "stray", "unknown algorithm: " << name);
    return make_algorithm(parsed);
  }
  if (name == "stray") {
    const AlgorithmParams& p = spec.params;
    MR_REQUIRE_MSG(p.stray_bound >= 0 && p.stray_bound <= 64,
                   "bad stray bound " << p.stray_bound);
    MR_REQUIRE_MSG(p.stray_block_threshold >= 1,
                   "bad stray block threshold " << p.stray_block_threshold);
    return std::make_unique<StrayRouter>(p.stray_bound,
                                         p.stray_block_threshold);
  }
  MR_REQUIRE_MSG(false, "unknown algorithm: " << name);
  return nullptr;
}

std::unique_ptr<Algorithm> make_algorithm(const std::string& name) {
  return make_algorithm(parse_algorithm_spec(name));
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  names.reserve(algorithm_catalog().size());
  for (const AlgorithmInfo& info : algorithm_catalog())
    names.push_back(info.name);
  return names;
}

std::vector<std::string> dx_minimal_algorithm_names() {
  std::vector<std::string> names;
  for (const AlgorithmInfo& info : algorithm_catalog())
    if (info.dx_minimal) names.push_back(info.name);
  return names;
}

}  // namespace mr
