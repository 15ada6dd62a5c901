#include "topo/registry.hpp"

#include "core/assert.hpp"
#include "core/parse.hpp"
#include "topo/cmesh.hpp"
#include "topo/mesh.hpp"

namespace mr {

const std::vector<TopologyInfo>& topology_catalog() {
  static const std::vector<TopologyInfo> catalog = {
      {"mesh", "2D mesh, the paper's §2 network", false, 1},
      {"torus", "2D torus: mesh plus wrap-around links (§5c)", true, 1},
      {"cmesh-4",
       "concentrated mesh: c terminals per router sharing its queues",
       false, 4},
  };
  return catalog;
}

TopoSpec parse_topology_spec(const std::string& name) {
  TopoSpec spec;
  spec.name = name;
  if (name.rfind("cmesh-", 0) != 0) return spec;
  // The whole suffix must be one decimal int; any other suffix leaves the
  // name as given, which no topology is registered under.
  std::int32_t concentration = 0;
  if (!parse_decimal(std::string_view(name).substr(6), &concentration))
    return spec;
  spec.name = "cmesh";
  spec.params.concentration = concentration;
  return spec;
}

bool known_topology(const std::string& name) {
  const std::string base = parse_topology_spec(name).name;
  return base == "mesh" || base == "torus" || base == "cmesh";
}

std::unique_ptr<Topology> make_topology(const TopoSpec& spec) {
  const std::string& name = spec.name;
  if (name == "mesh")
    return std::make_unique<Mesh>(spec.width, spec.height, /*torus=*/false);
  if (name == "torus")
    return std::make_unique<Mesh>(spec.width, spec.height, /*torus=*/true);
  if (name == "cmesh" || name.rfind("cmesh-", 0) == 0) {
    const TopoSpec parsed = name == "cmesh" ? spec : parse_topology_spec(name);
    MR_REQUIRE_MSG(parsed.name == "cmesh", "unknown topology: " << name);
    const TopoParams& p = parsed.params;
    MR_REQUIRE_MSG(p.concentration >= 1 && p.concentration <= 64,
                   "bad cmesh concentration " << p.concentration);
    return std::make_unique<CMesh>(spec.width, spec.height, p.concentration);
  }
  MR_REQUIRE_MSG(false, "unknown topology: " << name);
  return nullptr;
}

std::unique_ptr<Topology> make_topology(const std::string& name,
                                        std::int32_t width,
                                        std::int32_t height) {
  TopoSpec spec = parse_topology_spec(name);
  spec.width = width;
  spec.height = height;
  return make_topology(spec);
}

std::vector<std::string> topology_names() {
  std::vector<std::string> names;
  names.reserve(topology_catalog().size());
  for (const TopologyInfo& info : topology_catalog())
    names.push_back(info.name);
  return names;
}

}  // namespace mr
