#include "sim/trace.hpp"

#include "sim/sim.hpp"

namespace mr {

void TraceRecorder::record(const Sim& e, const StepDigest& d) {
  const auto deliver = [&](PacketId p) {
    const NodeId dest = e.packet(p).dest;
    events_.push_back(
        TraceEvent{TraceEventKind::Deliver, d.step, p, dest, dest});
  };
  for (PacketId p : d.injected_deliveries) deliver(p);
  for (const MoveRecord& m : d.moves) {
    events_.push_back(
        TraceEvent{TraceEventKind::Move, d.step, m.packet, m.from, m.to});
    if (m.delivered) deliver(m.packet);
  }
}

std::vector<NodeId> TraceRecorder::packet_path(PacketId p,
                                               NodeId source) const {
  std::vector<NodeId> path{source};
  for (const TraceEvent& ev : events_) {
    if (ev.packet != p || ev.kind != TraceEventKind::Move) continue;
    path.push_back(ev.to);
  }
  return path;
}

}  // namespace mr
