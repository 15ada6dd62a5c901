#include "routing/adaptive.hpp"

namespace mr {

namespace {

constexpr DirMask kHorizontal = dir_bit(Dir::East) | dir_bit(Dir::West);
constexpr DirMask kVertical = dir_bit(Dir::North) | dir_bit(Dir::South);

/// First direction in (E,W,N,S) order present in `m`, restricted to `axis`.
bool first_dir_on_axis(DirMask m, DirMask axis, Dir& out) {
  for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South}) {
    if (mask_has(axis, d) && mask_has(m, d)) {
      out = d;
      return true;
    }
  }
  return false;
}

/// Conservative accept-while-space inqueue, rotating starting inlink.
void rotating_accept(std::uint64_t rotation, int free,
                     std::span<const DxOffer> offers, InPlan& plan) {
  const int start = static_cast<int>(rotation % kNumDirs);
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

}  // namespace

void AdaptiveAlternateRouter::dx_init(NodeCtx&,
                                      std::span<PacketDxView> resident) {
  for (PacketDxView& v : resident)
    v.state = (v.profitable & kHorizontal) != 0 ? 0 : kAxisBit;
}

void AdaptiveAlternateRouter::dx_plan_out(
    NodeCtx&, std::span<const PacketDxView> resident, OutPlan& plan) {
  for (const PacketDxView& v : resident) {
    const DirMask preferred_axis = (v.state & kAxisBit) ? kVertical
                                                        : kHorizontal;
    Dir d;
    // Preferred axis first; if the preferred outlink is taken or the axis
    // is unprofitable, adapt to the other axis.
    if (first_dir_on_axis(v.profitable, preferred_axis, d) &&
        plan.scheduled(d) == kInvalidPacket) {
      plan.schedule(d, v.id);
      continue;
    }
    if (first_dir_on_axis(v.profitable, static_cast<DirMask>(~preferred_axis),
                          d) &&
        plan.scheduled(d) == kInvalidPacket) {
      plan.schedule(d, v.id);
    }
  }
}

void AdaptiveAlternateRouter::dx_plan_in(NodeCtx& ctx,
                                         std::span<const DxOffer> offers,
                                         InPlan& plan) {
  rotating_accept(ctx.state, ctx.capacity() - ctx.resident(), offers, plan);
}

void AdaptiveAlternateRouter::dx_update(NodeCtx& ctx,
                                        std::span<PacketDxView> resident) {
  // A packet that did not move this step (it arrived earlier and is still
  // here) was blocked: switch its preferred axis, provided both axes are
  // still profitable. Newly arrived packets keep their preference.
  for (PacketDxView& v : resident) {
    if (v.arrived_at == ctx.step()) continue;
    const bool h = (v.profitable & kHorizontal) != 0;
    const bool vert = (v.profitable & kVertical) != 0;
    if (h && vert) {
      v.state ^= kAxisBit;
    } else if (h) {
      v.state &= ~kAxisBit;
    } else if (vert) {
      v.state |= kAxisBit;
    }
  }
  ctx.state = (ctx.state + 1) % kNumDirs;
}

void GreedyMatchRouter::dx_plan_out(NodeCtx& ctx,
                                    std::span<const PacketDxView> resident,
                                    OutPlan& plan) {
  // FIFO over packets; each takes its first free profitable outlink, with
  // the direction preference rotating per step so no axis is starved.
  const int start = static_cast<int>(ctx.state % kNumDirs);
  for (const PacketDxView& v : resident) {
    for (int r = 0; r < kNumDirs; ++r) {
      const Dir d = static_cast<Dir>((start + r) % kNumDirs);
      if (mask_has(v.profitable, d) &&
          plan.scheduled(d) == kInvalidPacket) {
        plan.schedule(d, v.id);
        break;
      }
    }
  }
}

void GreedyMatchRouter::dx_plan_in(NodeCtx& ctx,
                                   std::span<const DxOffer> offers,
                                   InPlan& plan) {
  rotating_accept(ctx.state + 1, ctx.capacity() - ctx.resident(), offers, plan);
}

void GreedyMatchRouter::dx_update(NodeCtx& ctx, std::span<PacketDxView>) {
  ctx.state = (ctx.state + 1) % kNumDirs;
}

}  // namespace mr
