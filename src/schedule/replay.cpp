#include "schedule/replay.hpp"

#include <algorithm>

namespace mr {

void ScheduleFollower::dx_plan_out(NodeCtx& ctx,
                                   std::span<const PacketDxView> resident,
                                   OutPlan& plan) {
  const Step step = ctx.step();
  for (const PacketDxView& view : resident) {
    const std::size_t i = static_cast<std::size_t>(view.id);
    MR_REQUIRE_MSG(i < schedule_->packets.size(),
                   "packet " << view.id << " has no timetable");
    const PacketSchedule& p = schedule_->packets[i];
    const auto it =
        std::lower_bound(p.depart.begin(), p.depart.end(), step);
    if (it == p.depart.end() || *it != step) continue;  // waiting
    const std::size_t h =
        static_cast<std::size_t>(it - p.depart.begin());
    MR_REQUIRE_MSG(p.path.nodes[h] == ctx.node,
                   "packet " << view.id << " is at node " << ctx.node
                             << " at step " << step
                             << " but its timetable places it at "
                             << p.path.nodes[h]);
    plan.schedule(p.path.dirs[h], view.id);
  }
}

void ScheduleFollower::dx_plan_in(NodeCtx&, std::span<const DxOffer> offers,
                                  InPlan& plan) {
  // A feasible schedule never exceeds required_queue_capacity(), and
  // replay_schedule sizes the engine to exactly that bound, so every
  // offer is accepted; the engine's §2 capacity check still audits the
  // claim after each transmit phase.
  for (std::size_t i = 0; i < offers.size(); ++i) plan.accept[i] = true;
}

ReplayReport replay_schedule(const Topology& topo, const Schedule& s,
                             Step stall_slack) {
  ReplayReport report;
  report.queue_capacity = std::max(required_queue_capacity(s), 1);

  Engine::Config config;
  config.queue_capacity = report.queue_capacity;
  config.stall_limit = s.makespan + std::max<Step>(stall_slack, 1);

  auto shared = std::make_shared<const Schedule>(s);
  ScheduleFollower follower(shared);
  Engine engine(topo, config, follower);
  for (const PacketSchedule& p : s.packets)
    engine.add_packet(p.path.nodes.front(), p.path.nodes.back(), p.start());
  engine.prepare();
  report.steps = engine.run(std::max<Step>(s.makespan, 1));

  report.all_delivered = engine.all_delivered();
  report.total_moves = engine.total_moves();
  report.fingerprint = engine.fingerprint();
  report.on_time = report.all_delivered;
  for (std::size_t i = 0; i < s.packets.size() && report.on_time; ++i) {
    const PacketSchedule& p = s.packets[i];
    if (p.path.hops() == 0) continue;  // delivered at injection
    if (engine.packet(static_cast<PacketId>(i)).delivered_at != p.finish())
      report.on_time = false;
  }
  return report;
}

}  // namespace mr
