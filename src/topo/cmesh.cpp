#include "topo/cmesh.hpp"

#include <sstream>

namespace mr {

CMesh::CMesh(std::int32_t width, std::int32_t height,
             std::int32_t concentration)
    : Topology(width, height, /*wraps=*/false), concentration_(concentration) {
  MR_REQUIRE_MSG(concentration >= 1,
                 "cmesh concentration must be positive, got " << concentration);
}

std::string CMesh::name() const {
  std::ostringstream os;
  os << "cmesh-" << concentration_;
  return os.str();
}

}  // namespace mr
