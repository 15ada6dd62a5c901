#include "routing/dimension_order.hpp"

namespace mr {

bool dimension_order_dir(DirMask mask, Dir& out) {
  if (mask_has(mask, Dir::East)) {
    out = Dir::East;
    return true;
  }
  if (mask_has(mask, Dir::West)) {
    out = Dir::West;
    return true;
  }
  if (mask_has(mask, Dir::North)) {
    out = Dir::North;
    return true;
  }
  if (mask_has(mask, Dir::South)) {
    out = Dir::South;
    return true;
  }
  return false;
}

void DimensionOrderRouter::dx_plan_out(NodeCtx&,
                                       std::span<const PacketDxView> resident,
                                       OutPlan& plan) {
  // FIFO: `resident` is in queue (arrival) order, so the first eligible
  // packet per outlink wins.
  for (const PacketDxView& v : resident) {
    Dir d;
    if (!dimension_order_dir(v.profitable, d)) continue;
    if (plan.scheduled(d) == kInvalidPacket) plan.schedule(d, v.id);
  }
}

void DimensionOrderRouter::dx_plan_in(NodeCtx& ctx,
                                      std::span<const DxOffer> offers,
                                      InPlan& plan) {
  // Rotating-priority inqueue (the paper's round-robin example): the
  // starting inlink advances by one every step (see dx_update). Accepts
  // conservatively: never more than the space that remains even if none of
  // the node's own packets departs.
  int free = ctx.capacity() - ctx.resident();
  const int start = static_cast<int>(ctx.state % kNumDirs);
  for (int r = 0; r < kNumDirs && free > 0; ++r) {
    const Dir want = static_cast<Dir>((start + r) % kNumDirs);
    for (std::size_t i = 0; i < offers.size(); ++i) {
      if (offers[i].travel_dir == want && !plan.accept[i]) {
        plan.accept[i] = true;
        --free;
        break;
      }
    }
  }
}

void DimensionOrderRouter::dx_update(NodeCtx& ctx,
                                     std::span<PacketDxView>) {
  ctx.state = (ctx.state + 1) % kNumDirs;
}

}  // namespace mr
