// Naive reference implementation of the §3 step pipeline, for differential
// verification against the optimized Engine (sim/engine.hpp).
//
// ReferenceEngine deliberately avoids every optimisation the production
// engine carries: no incremental occupancy counters (queues are counted by
// scanning), no cached profitable masks (Sim::profitable_mask recomputes
// from the mesh on every call), no sorted-active merge (nodes are found by
// a full ascending scan each phase), no per-direction offer buckets (offers
// are comparison-sorted by (receiving node, travel direction)), and no
// queue-slot indices (removal scans the queue). Each phase is written as a
// direct transcription of §3:
//   injection → (a) plan_out → (b) adversary exchanges → (c) plan_in →
//   (d) transmit → (e) update_state → stall detection → observer digest.
//
// The two engines share only the Sim base (state layout + fingerprint),
// Packet, Algorithm and Topology. Their observable behaviour — fingerprints,
// step digests, counters, stall decisions — must be bit-identical on every
// input; the differential fuzzer (check/fuzz.hpp) asserts exactly that.
#pragma once

#include <vector>

#include "sim/algorithm.hpp"
#include "sim/sim.hpp"
#include "topo/topology.hpp"

namespace mr {

class ReferenceEngine : public Sim {
 public:
  /// Same parameters as Engine::Config, taken flat so check/ stays
  /// independent of the optimized engine's header.
  ReferenceEngine(const Topology& topo, int queue_capacity, Step stall_limit,
                  Algorithm& algorithm);

  /// See Engine::add_packet.
  PacketId add_packet(NodeId source, NodeId dest, Step injected_at = 0);

  void set_interceptor(StepInterceptor* interceptor) {
    interceptor_ = interceptor;
  }

  /// See Engine::prepare.
  void prepare();
  /// Executes one §3 step; false if the network was already drained.
  bool step_once();
  /// Steps until drained, stalled, or max_steps executed.
  Step run(Step max_steps);

  // --- Sim interface -----------------------------------------------------
  std::span<const NodeId> active_nodes() const override { return active_; }
  /// Counted by scanning the node's queue — no counters to drift.
  int occupancy(NodeId u, QueueTag tag) const override;
  using Sim::occupancy;
  void exchange_destinations(PacketId a, PacketId b) override;

 private:
  void inject_due_packets();
  void place_packet(PacketId p, NodeId node, QueueTag tag);
  void remove_from_node(PacketId p);
  void validate_out_plan(NodeId u, const OutPlan& plan,
                         std::vector<std::uint8_t>& scheduled);
  void record_occupancy(NodeId u);
  void rebuild_active();
  QueueTag injection_queue_tag(PacketId p) const;

  Algorithm& algorithm_;
  Step stall_limit_;
  bool enforce_minimal_;
  int max_stray_ = -1;

  StepInterceptor* interceptor_ = nullptr;
  bool prepared_ = false;
  Step stall_run_ = 0;
  std::int64_t injected_this_step_ = 0;
  /// Packets the last injection left outside for a full source queue.
  std::int64_t injections_waiting_ = 0;

  /// Rebuilt from scratch (full node scan) after every step.
  std::vector<NodeId> active_;
  std::vector<PacketId> injected_deliveries_;
};

}  // namespace mr
