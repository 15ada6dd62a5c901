// Event trace recorder: captures every move and delivery of a run as a
// flat event list, for offline replay against the invariants
// (check/oracles.hpp run_trace_oracles) and for path reconstruction.
// Purely observational (a StepObserver); never influences routing.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/algorithm.hpp"
#include "sim/packet.hpp"

namespace mr {

enum class TraceEventKind : std::uint8_t { Move, Deliver };

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::Move;
  Step step = 0;
  PacketId packet = kInvalidPacket;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;  ///< destination node for Deliver

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Records each digest as events in the per-event order: the injected
/// deliveries first, then each move, a delivering hop followed by its
/// Deliver event.
class TraceRecorder : public StepObserver {
 public:
  void on_prepare(const Sim& e, const StepDigest& d) override { record(e, d); }
  void on_step(const Sim& e, const StepDigest& d) override { record(e, d); }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// The node-path a packet took (source first; destination last if it was
  /// delivered).
  std::vector<NodeId> packet_path(PacketId p, NodeId source) const;

 private:
  void record(const Sim& e, const StepDigest& d);

  std::vector<TraceEvent> events_;
};

}  // namespace mr
