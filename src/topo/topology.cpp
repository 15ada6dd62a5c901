#include "topo/topology.hpp"

namespace mr {

Topology::Topology(std::int32_t width, std::int32_t height, bool wraps)
    : width_(width), height_(height), wraps_(wraps) {
  MR_REQUIRE_MSG(width >= 1 && height >= 1,
                 "mesh dimensions must be positive, got " << width << "x"
                                                          << height);
  // coord_of divides by the width as a multiply-shift. With l =
  // ceil(log2 width), s = 31 + l and m = ceil(2^s / width), write m =
  // 2^s / width + e with 0 <= e < 1. Then id * m / 2^s = id / width +
  // id * e / 2^s, and for id < 2^31 the second term is below 2^-l <=
  // 1 / width, too little to carry id / width past the next integer. m <=
  // 2^32, so the product fits in 64 bits.
  std::uint32_t l = 0;
  while ((std::uint64_t{1} << l) < static_cast<std::uint64_t>(width)) ++l;
  row_shift_ = 31 + l;
  row_mul_ = ((std::uint64_t{1} << row_shift_) - 1) /
                 static_cast<std::uint64_t>(width) +
             1;
}

std::vector<NodeId> Topology::all_nodes() const {
  std::vector<NodeId> v;
  v.reserve(static_cast<std::size_t>(num_nodes()));
  for (NodeId id = 0; id < num_nodes(); ++id) v.push_back(id);
  return v;
}

}  // namespace mr
