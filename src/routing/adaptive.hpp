// Minimal adaptive destination-exchangeable routers.
//
// AdaptiveAlternateRouter is the adaptive example sketched in §2: a packet
// moves in one profitable direction until blocked by congestion, then
// switches to its other profitable direction, alternating until delivered.
// GreedyMatchRouter maximises link utilisation: each node greedily matches
// resident packets to profitable outlinks in FIFO order, with a rotating
// outlink preference. Both see only §2-legal information, so the Theorem 14
// lower-bound construction applies to them.
#pragma once

#include "routing/dx.hpp"

namespace mr {

class AdaptiveAlternateRouter final : public DxAlgorithm {
 public:
  /// The outqueue reads the packets' preferred-axis bits, never the node
  /// state or the step.
  AdaptiveAlternateRouter()
      : DxAlgorithm(Update::Defined, PlanOut::QueueOnly) {}

  std::string name() const override { return "adaptive-alternate"; }

 protected:
  void dx_init(NodeCtx& ctx, std::span<PacketDxView> resident) override;
  void dx_plan_out(NodeCtx& ctx, std::span<const PacketDxView> resident,
                   OutPlan& plan) override;
  void dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                  InPlan& plan) override;
  void dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) override;

 private:
  // packet state bit 0: preferred axis (0 = horizontal, 1 = vertical)
  static constexpr std::uint64_t kAxisBit = 1;
};

class GreedyMatchRouter final : public DxAlgorithm {
 public:
  /// dx_update only advances the preference rotation in the node state.
  GreedyMatchRouter() : DxAlgorithm(Update::NodeState) {}

  std::string name() const override { return "greedy-match"; }

 protected:
  void dx_plan_out(NodeCtx& ctx, std::span<const PacketDxView> resident,
                   OutPlan& plan) override;
  void dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                  InPlan& plan) override;
  void dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) override;
};

}  // namespace mr
