// Concentrated mesh (after booksim2's cmesh): a plain 2D mesh of routers
// with `concentration` terminals attached to each router. Terminals share
// their router's injection/ejection queues, so at equal terminal count a
// cmesh offers fewer network ports than the equivalent flat mesh — the
// per-terminal saturation rate can only be lower (E19 pins this).
//
// Terminal t lives on router t / c in slot t % c (block mapping). Routing
// is ordinary non-wrapping mesh routing on the router grid (Topology's
// kernel); the engine never sees terminals, only routers.
#pragma once

#include "topo/topology.hpp"

namespace mr {

class CMesh final : public Topology {
 public:
  CMesh(std::int32_t width, std::int32_t height, std::int32_t concentration);

  std::string name() const override;

  std::unique_ptr<Topology> clone() const override {
    return std::make_unique<CMesh>(*this);
  }

  std::int32_t concentration() const override { return concentration_; }

  NodeId terminal_router(std::int32_t t) const override {
    MR_REQUIRE(t >= 0 && t < num_terminals());
    return t / concentration_;
  }

  std::int32_t terminal_of(NodeId router, std::int32_t slot) const override {
    MR_REQUIRE(router >= 0 && router < num_nodes());
    MR_REQUIRE(slot >= 0 && slot < concentration_);
    return router * concentration_ + slot;
  }

 private:
  std::int32_t concentration_;
};

}  // namespace mr
