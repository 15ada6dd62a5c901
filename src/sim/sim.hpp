// Abstract network-configuration interface shared by every step-engine
// implementation (paper §2).
//
// A Sim owns the pieces of the model every engine must represent —
// packets, per-node queues, node states, the step counter — and exposes
// the query/mutation surface that Algorithm implementations, adversary
// interceptors and observers are written against. Two engines implement
// it:
//   * Engine (sim/engine.hpp): the optimized O(moves) production engine
//     with incremental occupancy counters, cached profitable masks and a
//     sorted-active merge;
//   * ReferenceEngine (check/reference_engine.hpp): a deliberately naive
//     straight-from-the-paper implementation used for differential
//     verification.
// Because both derive from this class and share the state layout and the
// fingerprint() hash, a divergence between the two is necessarily a
// semantic difference in stepping, never an artefact of observation.
//
// Hot-path queries (packet, packets_at, node_state, occupancy) are
// concrete reads of the shared state and cost the same as before the
// split; only rarely-called or deliberately-divergent operations
// (occupancy per inlink queue, active-node enumeration, destination
// exchange) are virtual. profitable_mask() is concrete but honours
// `masks_cached_`: the optimized engine maintains the per-packet cache,
// the reference engine recomputes from the mesh on every call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/assert.hpp"
#include "core/types.hpp"
#include "sim/algorithm.hpp"
#include "sim/fault.hpp"
#include "sim/node_queues.hpp"
#include "sim/packet.hpp"
#include "topo/topology.hpp"

namespace mr {

class Sim {
 public:
  Sim(const Topology& topo, int queue_capacity, QueueLayout layout,
      bool masks_cached);
  virtual ~Sim();

  Sim(const Sim&) = delete;
  Sim& operator=(const Sim&) = delete;

  // --- configuration -----------------------------------------------------
  /// The network being routed on. Historically this was the concrete Mesh;
  /// the accessor keeps its name so call sites read naturally, but any
  /// registered Topology may be behind it.
  const Topology& mesh() const { return *topo_; }
  const Topology& topology() const { return *topo_; }
  int queue_capacity() const { return queue_capacity_; }
  QueueLayout queue_layout() const { return layout_; }

  // --- observation -------------------------------------------------------
  /// Registers an observer: one on_step callback per executed step, in
  /// registration order. Per-event Observers (algorithm.hpp) attach here
  /// too.
  void add_observer(StepObserver* observer);

  // --- queries (valid during callbacks and between steps) ---------------
  /// Number of the step currently executing (1-based), or of the last
  /// executed step between steps; 0 before the first step.
  Step step() const { return step_; }

  std::size_t num_packets() const { return packets_.size(); }
  std::size_t delivered_count() const { return delivered_count_; }
  bool all_delivered() const { return delivered_count_ == packets_.size(); }
  bool stalled() const { return stalled_; }

  const Packet& packet(PacketId p) const { return packets_[p]; }
  /// Packets currently queued at node u, in queue order (arrival order).
  std::span<const PacketId> packets_at(NodeId u) const {
    return node_packets_.at(u);
  }
  int occupancy(NodeId u) const {
    return static_cast<int>(node_packets_.size(u));
  }
  /// Occupancy of one inlink queue (PerInlink layout only).
  virtual int occupancy(NodeId u, QueueTag tag) const = 0;

  /// Nodes currently holding at least one packet, ascending by NodeId.
  /// Valid between steps and inside on_prepare / on_step callbacks.
  virtual std::span<const NodeId> active_nodes() const = 0;

  /// Profitable outlinks of packet p from its current node (§2's only
  /// destination-derived information). Reads the per-packet cache when the
  /// implementation maintains one, else recomputes from the mesh. While a
  /// fault schedule has active events the mask is further intersected with
  /// the node's availability mask, so minimal algorithms route around
  /// faults (or hold the packet) without ever seeing the fault state
  /// directly.
  DirMask profitable_mask(PacketId p) const {
    const Packet& pk = packets_[p];
    DirMask m = masks_cached_ ? pk.profitable
                              : topo_->profitable_dirs(pk.location, pk.dest);
    if (faults_active_ && pk.location != kInvalidNode)
      m &= fault_avail_[static_cast<std::size_t>(pk.location)];
    return m;
  }

  // --- fault injection ---------------------------------------------------
  /// Installs a timed link/node fault schedule (sim/fault.hpp). Must be
  /// set before prepare()/restore(); availability is re-derived from
  /// (schedule, step) at every window boundary, so the schedule is the
  /// only fault state and snapshots need no extra fields.
  void set_fault_schedule(FaultSchedule schedule);
  const FaultSchedule& fault_schedule() const { return fault_schedule_; }
  /// True while at least one scheduled fault window covers the current
  /// step.
  bool faults_active() const { return faults_active_; }
  /// Usable outlinks of node u under the current fault set: bit d set iff
  /// the link exists and the link and both endpoints are up (all zero for
  /// a down node). Falls back to the topology's existing links when no
  /// fault is active.
  DirMask available_mask(NodeId u) const;
  bool node_available(NodeId u) const {
    return !faults_active_ || node_down_[static_cast<std::size_t>(u)] == 0;
  }
  /// Scheduled moves dropped (fault_blocked) and injections deferred
  /// (fault_deferred) by faults during the current step; also surfaced per
  /// step in StepDigest and cumulatively in telemetry.
  std::int64_t fault_blocked_this_step() const {
    return fault_blocked_this_step_;
  }
  std::int64_t fault_deferred_this_step() const {
    return fault_deferred_this_step_;
  }

  std::uint64_t node_state(NodeId u) const { return node_state_[u]; }
  void set_node_state(NodeId u, std::uint64_t s) { node_state_[u] = s; }
  /// A changed state of a queued packet makes its node's cached out-plan
  /// stale; writing back an unchanged state does not.
  void set_packet_state(PacketId p, std::uint64_t s) {
    Packet& pk = packets_[p];
    if (pk.state == s) return;
    pk.state = s;
    if (pk.location != kInvalidNode) mark_plan_stale(pk.location);
  }

  // --- adversary interface (only legal from StepInterceptor) -----------
  /// Exchange of §2: swaps the destination addresses of a and b; all other
  /// packet information (state, source, position) is untouched.
  virtual void exchange_destinations(PacketId a, PacketId b) = 0;
  std::size_t exchange_count() const { return exchange_count_; }

  // --- metrics ----------------------------------------------------------
  /// Largest queue occupancy observed at any point after a transmission
  /// phase (per single queue in the PerInlink layout).
  int max_occupancy_seen() const { return max_occupancy_seen_; }
  std::int64_t total_moves() const { return total_moves_; }

  /// Order-sensitive 64-bit fingerprint of the full network configuration
  /// (node states + queued packets with all fields). Used by the Lemma 12
  /// replay-equivalence check and the differential fuzzer. With
  /// include_dest = false the destination fields are omitted: Lemma 11/12
  /// predict that the construction and the replay agree on everything
  /// except the not-yet-performed exchanges, which only permute
  /// destinations.
  std::uint64_t fingerprint(bool include_dest = true) const;

  /// Copies of all packet records (delivered ones included).
  const std::vector<Packet>& all_packets() const { return packets_; }

 protected:
  void mark_plan_stale(NodeId u) {
    if (out_plans_) out_plans_[static_cast<std::size_t>(u)].mark_stale();
  }

  /// Validates and appends a new packet record (shared add_packet core).
  PacketId register_packet(NodeId source, NodeId dest, Step injected_at);

  /// Rebuilds the availability masks for step t. Cheap no-op unless t
  /// crossed a fault window boundary since the last call (epochs compare
  /// equal otherwise), so the schedule-free hot path pays one branch.
  /// Engines call this at prepare(), at the top of every step, and after
  /// restore().
  void apply_faults(Step t);

  /// Owned clone of the construction-time topology (Sim is non-copyable,
  /// so a unique_ptr suffices). Hot paths read the cached scalars below
  /// instead of chasing this pointer.
  std::unique_ptr<const Topology> topo_;
  /// Cached grid scalars (== topo_->num_nodes()/width()/height()/is_torus()).
  NodeId num_nodes_;
  std::int32_t topo_width_;
  std::int32_t topo_height_;
  bool wraps_;
  int queue_capacity_;
  QueueLayout layout_;
  /// True when the implementation maintains Packet::profitable; false
  /// makes profitable_mask() recompute from the mesh on every call.
  bool masks_cached_;

  std::vector<Packet> packets_;
  /// Per-node queues in one flat slab (structure-of-arrays; see
  /// node_queues.hpp). Stride = layout capacity + one arrival per inlink of
  /// transient headroom for phase (d), whose §2 capacity check runs after
  /// the transmissions.
  NodeQueues node_packets_;
  std::vector<std::uint64_t> node_state_;

  std::vector<StepObserver*> observers_;

  Step step_ = 0;
  std::size_t delivered_count_ = 0;
  bool stalled_ = false;
  std::size_t exchange_count_ = 0;
  bool in_interceptor_ = false;

  // --- fault state (derived from fault_schedule_ by apply_faults) -------
  FaultSchedule fault_schedule_;
  /// Per-node usable-outlink masks; sized only while faults_active_.
  std::vector<DirMask> fault_avail_;
  std::vector<std::uint8_t> node_down_;
  bool faults_active_ = false;
  /// Epoch of the last apply_faults rebuild; -1 forces the first build.
  std::int64_t fault_epoch_ = -1;
  std::int64_t fault_blocked_this_step_ = 0;
  std::int64_t fault_deferred_this_step_ = 0;

  int max_occupancy_seen_ = 0;
  std::int64_t total_moves_ = 0;

  /// Engine's per-node out-plan cache (Algorithm::plan_out_reads_queue_only):
  /// the last validated plan of each node, OutPlan::stale() when the node's
  /// queue changed since. Fresh zero pages from an anonymous mapping (see
  /// Engine::reset_out_plans), so the pages of nodes that never hold a
  /// packet are never written; null while plan reuse is off.
  struct UnmapDeleter {
    std::size_t bytes;  ///< length of the mapping
    void operator()(OutPlan* p) const;
  };
  std::unique_ptr<OutPlan[], UnmapDeleter> out_plans_;
};

}  // namespace mr
