#include "routing/stray.hpp"

namespace mr {

void StrayRouter::dx_plan_out(NodeCtx& ctx,
                              std::span<const PacketDxView> resident,
                              OutPlan& plan) {
  for (const PacketDxView& v : resident) {
    if (armed(v.state)) {
      // Committed to a deflection: attempt it (and only it) until it lands.
      const Dir d = armed_dir(v.state);
      if (ctx.has_outlink(d) && plan.scheduled(d) == kInvalidPacket)
        plan.schedule(d, v.id);
      continue;
    }
    for (Dir d : {Dir::East, Dir::North, Dir::West, Dir::South}) {
      if (mask_has(v.profitable, d) &&
          plan.scheduled(d) == kInvalidPacket) {
        plan.schedule(d, v.id);
        break;
      }
    }
  }
}

void StrayRouter::dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                             InPlan& plan) {
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

void StrayRouter::dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) {
  for (PacketDxView& v : resident) {
    const bool moved = v.arrived_at == ctx.step();
    if (moved) {
      if (armed(v.state) && v.arrival_inlink < kNumDirs &&
          opposite(static_cast<Dir>(v.arrival_inlink)) ==
              armed_dir(v.state)) {
        // The armed deflection landed here: charge one unit of stray debt
        // and disarm. (A profitable hop cannot have happened while armed —
        // plan_out only schedules the armed direction.)
        const std::uint64_t new_debt =
            std::min<std::uint64_t>(debt(v.state) + 1, kDebtMask);
        v.state = (new_debt << kDebtShift);  // disarm, reset streak
      } else {
        v.state &= ~(kStreakMask << kStreakShift);  // reset streak
        v.state &= ~(kArmedBit | kDirMaskBits);
      }
      continue;
    }
    // Blocked this step.
    const std::uint64_t new_streak =
        std::min<std::uint64_t>(streak(v.state) + 1, kStreakMask);
    v.state = (v.state & ~(kStreakMask << kStreakShift)) |
              (new_streak << kStreakShift);
    if (armed(v.state)) {
      // A stuck deflection is re-aimed after a while (the target stayed
      // full); disarming lets the packet try profitable directions again.
      if (new_streak >= static_cast<std::uint64_t>(2 * block_threshold_))
        v.state &= ~(kArmedBit | kDirMaskBits);
      continue;
    }
    if (static_cast<int>(new_streak) >= block_threshold_ &&
        debt(v.state) < delta_) {
      // Arm a deflection: first existing unprofitable outlink, scanning
      // from a per-step rotation so repeated deflections spread out.
      const int start =
          static_cast<int>((ctx.state + v.id) % kNumDirs);
      for (int r = 0; r < kNumDirs; ++r) {
        const Dir d = static_cast<Dir>((start + r) % kNumDirs);
        if (mask_has(v.profitable, d)) continue;
        if (!ctx.has_outlink(d)) continue;
        v.state = (v.state & ~(kArmedBit | kDirMaskBits)) | kArmedBit |
                  static_cast<std::uint64_t>(dir_index(d));
        break;
      }
    }
  }
  ctx.state = (ctx.state + 1) % kNumDirs;
}

}  // namespace mr
