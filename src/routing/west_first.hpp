// West-first minimal adaptive routing (Chien–Kim planar-adaptive flavour,
// cited in §2 as implementable destination-exchangeably).
//
// Rule: a packet with a profitable West outlink moves west first
// (deterministically, no adaptivity while heading west); once West is no
// longer profitable it routes fully adaptively among its remaining
// profitable outlinks (N/E/S), preferring the outlink whose opposite
// inlink delivered fewer packets recently (a congestion signal kept in the
// node state — legal: it derives only from observed packet presence).
// Everything is expressed through profitable masks, so Theorem 14's
// construction applies.
#pragma once

#include "routing/dx.hpp"

namespace mr {

class WestFirstRouter final : public DxAlgorithm {
 public:
  std::string name() const override { return "west-first"; }

 protected:
  void dx_plan_out(NodeCtx& ctx, std::span<const PacketDxView> resident,
                   OutPlan& plan) override;
  void dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                  InPlan& plan) override;
  void dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) override;
};

}  // namespace mr
