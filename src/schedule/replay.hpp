// Scheduled-mode execution: replaying a precomputed Schedule on the
// production Engine.
//
// The schedulers in schedule.hpp reason about an idealised store-and-
// forward network. Rather than trust a second simulator, scheduled mode
// re-executes the timetable on the real engine: every packet is added
// with injected_at = its first departure step, and a ScheduleFollower
// algorithm moves each packet exactly when its timetable says to. The
// engine's own invariant machinery (minimality enforcement, queue-
// capacity checks, fingerprints, telemetry, snapshots) then applies to
// scheduled runs unchanged — a schedule that claims makespan T but
// needs more steps, moves a packet off its path, or overflows the
// queue bound computed by required_queue_capacity() fails loudly.
//
// ScheduleFollower is a DxAlgorithm on purpose: its decisions are pure
// timetable lookups keyed by (packet id, step), never by destination,
// so the destination-exchangeable adapter's restricted views cost it
// nothing and clones for the sharded engine share one immutable
// timetable.
#pragma once

#include <memory>

#include "routing/dx.hpp"
#include "schedule/schedule.hpp"

namespace mr {

/// Moves each packet along its PacketSchedule, one timetable lookup per
/// (resident packet, step). Stateless apart from the shared immutable
/// schedule, so instances are clone-safe for the sharded engine's
/// per-band algorithm factories. PacketId i must correspond to
/// schedule.packets[i] — replay_schedule() guarantees this by adding
/// packets in demand order.
class ScheduleFollower final : public DxAlgorithm {
 public:
  explicit ScheduleFollower(std::shared_ptr<const Schedule> schedule)
      : DxAlgorithm(Update::None), schedule_(std::move(schedule)) {
    MR_REQUIRE(schedule_ != nullptr);
  }

  std::string name() const override { return "schedule-follower"; }
  bool minimal() const override { return true; }

 protected:
  void dx_plan_out(NodeCtx& ctx, std::span<const PacketDxView> resident,
                   OutPlan& plan) override;
  void dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                  InPlan& plan) override;

 private:
  std::shared_ptr<const Schedule> schedule_;
};

/// Outcome of one scheduled-mode engine run, cross-checked against the
/// timetable's own claims.
struct ReplayReport {
  Step steps = 0;            ///< engine steps executed
  bool all_delivered = false;
  /// Engine finished in exactly schedule.makespan steps and every packet's
  /// delivered_at matches its timetable finish().
  bool on_time = false;
  int queue_capacity = 0;    ///< k the engine ran with
  std::int64_t total_moves = 0;
  std::uint64_t fingerprint = 0;  ///< end-of-run engine fingerprint
};

/// Replays `s` on a fresh Engine over `topo` with
/// queue_capacity = max(required_queue_capacity(s), 1), packets added in
/// demand order (PacketId == demand index) with injected_at = start().
/// Runs for at most makespan steps; stall_slack pads the engine's stall
/// limit for delay-induced idle stretches.
ReplayReport replay_schedule(const Topology& topo, const Schedule& s,
                             Step stall_slack = 16);

}  // namespace mr
