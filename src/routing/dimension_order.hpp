// Dimension-order (XY) router with FIFO outqueue and rotating-priority
// inqueue — the canonical destination-exchangeable algorithm of §2.
//
// A packet first travels along its row (east/west) while horizontally
// profitable, then along its column. Note that under the DX restriction
// this is expressible purely through profitable-outlink masks: a packet is
// in its row phase iff its mask contains East or West.
#pragma once

#include "routing/dx.hpp"

namespace mr {

class DimensionOrderRouter final : public DxAlgorithm {
 public:
  /// dx_update only advances the inqueue pointer in the node state; the
  /// FIFO outqueue reads only the queue.
  DimensionOrderRouter()
      : DxAlgorithm(Update::NodeState, PlanOut::QueueOnly) {}

  std::string name() const override { return "dimension-order"; }

 protected:
  void dx_plan_out(NodeCtx& ctx, std::span<const PacketDxView> resident,
                   OutPlan& plan) override;
  void dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                  InPlan& plan) override;
  void dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) override;
};

/// The outlink a dimension-order packet wants, given only its profitable
/// mask: horizontal first (East preferred on a torus tie), then vertical
/// (North preferred). Returns false if the mask is empty.
bool dimension_order_dir(DirMask mask, Dir& out);

}  // namespace mr
