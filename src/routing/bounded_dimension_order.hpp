// Theorem 15: a destination-exchangeable dimension-order router with four
// incoming queues of size k per node that routes any permutation on the
// n×n mesh in O(n²/k + n) steps.
//
// Policies (paper §5):
//  * outqueue: packets trying to go STRAIGHT (continue in the direction of
//    their arrival inlink) have priority; ties broken FIFO.
//  * inqueue: the two column queues (packets travelling north/south) always
//    accept — the straight-priority rule guarantees every non-empty column
//    queue ejects a packet each step, so accepting is safe. The two row
//    queues accept iff they hold fewer than k packets at the start of the
//    step.
// Everything is expressible from queue tags and profitable masks, so the
// router is implemented as a DxAlgorithm; the §5 dimension-order lower
// bound applies to it, making Θ(n²/k) tight.
#pragma once

#include "routing/dx.hpp"

namespace mr {

class BoundedDimensionOrderRouter final : public DxAlgorithm {
 public:
  /// Stateless: every decision reads queue tags and profitable masks.
  BoundedDimensionOrderRouter() : DxAlgorithm(Update::None) {}

  std::string name() const override { return "bounded-dimension-order"; }
  QueueLayout queue_layout() const override { return QueueLayout::PerInlink; }

 protected:
  void dx_plan_out(NodeCtx& ctx, std::span<const PacketDxView> resident,
                   OutPlan& plan) override;
  void dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                  InPlan& plan) override;
};

}  // namespace mr
