#include "routing/west_first.hpp"

namespace mr {

namespace {

// Node state layout: two bits per direction hold a saturating recent-use
// counter for the corresponding outlink (bits [2d, 2d+1]), plus a rotating
// inqueue pointer in bits [8, 9].
int use_count(std::uint64_t state, Dir d) {
  return static_cast<int>((state >> (2 * dir_index(d))) & 0x3u);
}

std::uint64_t bump_use(std::uint64_t state, Dir d) {
  const int c = use_count(state, d);
  if (c >= 3) return state;
  return state + (1ULL << (2 * dir_index(d)));
}

std::uint64_t decay_uses(std::uint64_t state) {
  // Halve every counter each step so the signal tracks recent congestion.
  std::uint64_t out = state & ~0xFFULL;
  for (Dir d : kAllDirs) {
    const std::uint64_t c = (state >> (2 * dir_index(d))) & 0x3u;
    out |= (c >> 1) << (2 * dir_index(d));
  }
  return out;
}

}  // namespace

void WestFirstRouter::dx_plan_out(NodeCtx& ctx,
                                  std::span<const PacketDxView> resident,
                                  OutPlan& plan) {
  for (const PacketDxView& v : resident) {
    if (mask_has(v.profitable, Dir::West)) {
      // West-first: no adaptivity while a west hop is profitable.
      if (plan.scheduled(Dir::West) == kInvalidPacket)
        plan.schedule(Dir::West, v.id);
      continue;
    }
    // Adaptive among N/E/S: least-recently-used outlink first.
    Dir best = Dir::North;
    bool found = false;
    int best_use = 0;
    for (Dir d : {Dir::North, Dir::East, Dir::South}) {
      if (!mask_has(v.profitable, d)) continue;
      if (plan.scheduled(d) != kInvalidPacket) continue;
      const int use = use_count(ctx.state, d);
      if (!found || use < best_use) {
        found = true;
        best = d;
        best_use = use;
      }
    }
    if (found) plan.schedule(best, v.id);
  }
}

void WestFirstRouter::dx_plan_in(NodeCtx& ctx,
                                 std::span<const DxOffer> offers,
                                 InPlan& plan) {
  int free = ctx.capacity() - ctx.resident();
  const int start = static_cast<int>((ctx.state >> 8) & 0x3u);
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

void WestFirstRouter::dx_update(NodeCtx& ctx,
                                std::span<PacketDxView> resident) {
  std::uint64_t state = decay_uses(ctx.state);
  // Outlinks whose packets left are inferable from the packets that
  // remain/arrived — here we use arrivals as the congestion proxy: a
  // packet that arrived this step came through the opposite outlink of
  // some neighbour; we bump the inlink direction's counter so future
  // adaptive choices spread away from busy corridors.
  for (const PacketDxView& v : resident) {
    if (v.arrived_at == ctx.step() && v.arrival_inlink < kNumDirs)
      state = bump_use(state, static_cast<Dir>(v.arrival_inlink));
  }
  // Advance the rotating inqueue pointer.
  const std::uint64_t pointer = ((ctx.state >> 8) + 1) & 0x3u;
  ctx.state = (state & ~(0x3ULL << 8)) | (pointer << 8);
}

}  // namespace mr
