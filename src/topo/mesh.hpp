// Mesh and torus topology (paper §2, Figure 1).
//
// Columns are numbered west→east and rows south→north. Internally both are
// 0-based; the paper's 1-based "column 1..n" convention appears only in
// printed output. The network is the bidirected graph in which every node
// has an outlink and inlink per adjacent node (wrap-around links on the
// torus). The edge and distance kernel is Topology's; a Mesh adds only
// its name and clone.
#pragma once

#include "topo/topology.hpp"

namespace mr {

class Mesh final : public Topology {
 public:
  /// An n×m mesh (width = columns, height = rows). `torus` adds wrap links.
  Mesh(std::int32_t width, std::int32_t height, bool torus = false)
      : Topology(width, height, torus) {}

  /// Square n×n mesh.
  static Mesh square(std::int32_t n, bool torus = false) {
    return Mesh(n, n, torus);
  }

  std::string name() const override { return is_torus() ? "torus" : "mesh"; }

  std::unique_ptr<Topology> clone() const override {
    return std::make_unique<Mesh>(*this);
  }
};

}  // namespace mr
