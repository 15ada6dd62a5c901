#include "topo/topology.hpp"

namespace mr {

Topology::Topology(std::int32_t width, std::int32_t height, bool wraps)
    : width_(width), height_(height), wraps_(wraps) {
  MR_REQUIRE_MSG(width >= 1 && height >= 1,
                 "mesh dimensions must be positive, got " << width << "x"
                                                          << height);
}

std::vector<NodeId> Topology::all_nodes() const {
  std::vector<NodeId> v;
  v.reserve(static_cast<std::size_t>(num_nodes()));
  for (NodeId id = 0; id < num_nodes(); ++id) v.push_back(id);
  return v;
}

}  // namespace mr
