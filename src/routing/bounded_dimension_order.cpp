#include "routing/bounded_dimension_order.hpp"

#include <array>

namespace mr {

namespace {

constexpr DirMask kHorizontal = dir_bit(Dir::East) | dir_bit(Dir::West);

/// The outlink this packet wants: straight continuation while horizontally
/// profitable, else the turn into its destination column.
bool wanted_dir(const PacketDxView& v, bool& straight, Dir& out) {
  const Dir came_from = static_cast<Dir>(v.queue);  // inlink direction
  const Dir travel = opposite(came_from);
  if ((v.profitable & kHorizontal) != 0) {
    // Row phase. A row packet always continues in its travel direction
    // (minimality: the opposite row direction is never profitable).
    out = mask_has(v.profitable, Dir::East) ? Dir::East : Dir::West;
    straight = (out == travel);
    return true;
  }
  // Column phase: turn (from a row queue) or continue (from a column queue).
  if (mask_has(v.profitable, Dir::North)) {
    out = Dir::North;
  } else if (mask_has(v.profitable, Dir::South)) {
    out = Dir::South;
  } else {
    return false;  // at destination; engine will have delivered it
  }
  straight = (out == travel);
  return true;
}

}  // namespace

void BoundedDimensionOrderRouter::dx_plan_out(
    NodeCtx&, std::span<const PacketDxView> resident, OutPlan& plan) {
  // Two passes: straight packets claim outlinks first (priority), then
  // turning packets fill what remains. Within a pass, `resident` order is
  // queue order = FIFO.
  struct Best {
    PacketId p = kInvalidPacket;
    Step arrived = 0;
  };
  std::array<Best, kNumDirs> straight_best;
  std::array<Best, kNumDirs> turn_best;
  for (const PacketDxView& v : resident) {
    bool straight = false;
    Dir d;
    if (!wanted_dir(v, straight, d)) continue;
    auto& slot = straight ? straight_best[dir_index(d)]
                          : turn_best[dir_index(d)];
    if (slot.p == kInvalidPacket || v.arrived_at < slot.arrived) {
      slot.p = v.id;
      slot.arrived = v.arrived_at;
    }
  }
  for (Dir d : kAllDirs) {
    const int i = dir_index(d);
    if (straight_best[i].p != kInvalidPacket) {
      plan.schedule(d, straight_best[i].p);
    } else if (turn_best[i].p != kInvalidPacket) {
      plan.schedule(d, turn_best[i].p);
    }
  }
}

void BoundedDimensionOrderRouter::dx_plan_in(
    NodeCtx& ctx, std::span<const DxOffer> offers, InPlan& plan) {
  // The Theorem 15 guarantee behind unconditional column acceptance — a
  // non-empty column queue always ejects one packet this very step — is
  // void for the whole run once a fault schedule is installed, not just
  // while a window is active or at degraded nodes: an upstream fault
  // strips a packet's row bit from its masked profitable dirs, the packet
  // reroutes through a column link, and it arrives at a fully-healthy
  // node as a row-phase resident of a column queue — where it competes
  // for a row outlink instead of ejecting, and where it may still sit
  // after the window lifts. In fault mode the router falls back to
  // capacity-checked acceptance on every queue (reroute-or-stall: the
  // sender retries next step); fault-free runs are bit-identical.
  const bool guaranteed_eject = !ctx.fault_mode();
  const int capacity = ctx.capacity();
  for (std::size_t i = 0; i < offers.size(); ++i) {
    const Dir travel = offers[i].travel_dir;
    const int queue = dir_index(opposite(travel));
    if (guaranteed_eject && (travel == Dir::North || travel == Dir::South)) {
      plan.accept[i] = true;
    } else {
      // Occupancy of the inlink queue at the start of phase (c).
      plan.accept[i] = ctx.inlink_occupancy(queue) < capacity;
    }
  }
}

}  // namespace mr
