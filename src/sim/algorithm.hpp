// Routing-algorithm interface for the discrete-step engine (paper §2).
//
// One step of the engine runs, for every node, the pipeline of §3:
//   (a) plan_out  — outqueue policy schedules ≤1 packet per outlink
//   (b) adversary — optional interceptor may exchange destination addresses
//   (c) plan_in   — inqueue policy accepts/rejects scheduled packets
//   (d) transmit  — accepted packets move; arrivals at destination deliver
//   (e) update    — node and packet states update
//
// Algorithm implementations receive the Sim for queries. Full-information
// algorithms (farthest-first, §6) may inspect destinations; destination-
// exchangeable algorithms must derive from DxAlgorithm (dx.hpp), whose
// callbacks expose only the §2-legal fields.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "core/types.hpp"
#include "sim/packet.hpp"

namespace mr {

class Sim;

/// Outqueue decision for one node: packet scheduled on each outlink.
struct OutPlan {
  std::array<PacketId, kNumDirs> out{kInvalidPacket, kInvalidPacket,
                                     kInvalidPacket, kInvalidPacket};

  void schedule(Dir d, PacketId p) { out[dir_index(d)] = p; }
  PacketId scheduled(Dir d) const { return out[dir_index(d)]; }
  void clear() { out.fill(kInvalidPacket); }

  /// The engine's per-node plan cache marks a plan that must be recomputed
  /// by naming one packet on the first two outlinks, which no validated
  /// plan does (the engine rejects a packet scheduled twice). All-zero
  /// bytes read as stale, so a zero-filled cache starts all stale.
  bool stale() const { return out[0] == out[1] && out[0] != kInvalidPacket; }
  void mark_stale() { out[0] = out[1] = 0; }
};

/// A packet scheduled to enter node `to` from node `from` travelling in
/// direction `dir` (so it arrives on inlink opposite(dir)).
struct Offer {
  PacketId packet = kInvalidPacket;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Dir dir = Dir::North;
  /// Profitable outlinks measured from the *sending* node, as §2 prescribes
  /// for scheduled packets.
  DirMask profitable_from_sender = 0;
};

/// Inqueue decision: accept[i] answers offers[i]. A node receives at most
/// one offer per inlink, so a fixed array covers every group; entries past
/// the group's size are ignored. Resetting it allocates nothing.
struct InPlan {
  std::array<bool, kNumDirs> accept{};
  void reset() { accept.fill(false); }
};

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual std::string name() const = 0;

  virtual QueueLayout queue_layout() const { return QueueLayout::Central; }

  /// Minimal algorithms may only schedule packets along profitable
  /// outlinks; the engine enforces this (throws InvariantViolation).
  virtual bool minimal() const { return true; }

  /// For non-minimal algorithms (§5 "Nonminimal extensions"): the maximum
  /// number of nodes a packet may stray beyond the rectangle spanned by
  /// the shortest source→destination paths. The engine enforces the
  /// expanded-rectangle containment. Negative = unrestricted (hot-potato
  /// style). Ignored when minimal() is true.
  virtual int max_stray() const { return -1; }

  /// Called once before step 1, after initial packets are placed. The
  /// initial states set here may, for DX algorithms, depend only on the
  /// §2-legal fields.
  virtual void init(Sim&) {}

  /// (a) Outqueue policy of node u. `plan` arrives cleared.
  virtual void plan_out(Sim& e, NodeId u, OutPlan& plan) = 0;

  /// True when plan_out(e, u, ·) depends only on the packets queued at u
  /// (their ids and queue order, and each packet's fields: state, source,
  /// destination or profitable mask, queue tag, arrival data) and on
  /// node-constant facts (u, its coordinates, the mesh, k) — never on the
  /// node state, the step or anything outside u. The engine then keeps a
  /// node's last validated plan and re-emits it without calling plan_out
  /// for as long as the node's queue is unchanged (DESIGN.md §9). A
  /// decorator that does not forward this keeps every call.
  virtual bool plan_out_reads_queue_only() const { return false; }

  /// (c) Inqueue policy of node v. Offers arrive in deterministic order
  /// (by travel direction). The engine verifies post-step occupancy.
  /// Offers whose packet is arriving at its destination are delivered by
  /// the engine directly and never shown to the policy.
  virtual void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
                       InPlan& plan) = 0;

  /// (e) State update for node v (called for every node that held, sent or
  /// received a packet this step). Default: no state.
  virtual void update_state(Sim&, NodeId) {}
};

/// A move that will happen in phase (d) unless rejected in (c).
struct ScheduledMove {
  PacketId packet = kInvalidPacket;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Dir dir = Dir::North;
};

/// Hook between phases (a) and (c): the lower-bound constructions exchange
/// destination addresses here (paper §3 step (b)).
class StepInterceptor {
 public:
  virtual ~StepInterceptor() = default;
  virtual void after_schedule(Sim& e,
                              std::span<const ScheduledMove> moves) = 0;
};

/// One transmission executed in phase (d): `packet` travelled from → to in
/// direction `dir`. `delivered` is true iff `to` was the packet's
/// destination, in which case the engine removed it from the network.
struct MoveRecord {
  PacketId packet = kInvalidPacket;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Dir dir = Dir::North;
  bool delivered = false;
};

/// Everything observable about one executed step, delivered to observers
/// in a single callback after the step completes (so observation costs one
/// virtual call per step, not one per move). Spans point into engine
/// scratch and are valid only for the duration of the callback.
struct StepDigest {
  Step step = 0;  ///< step number; 0 for the prepare() digest

  /// Phase (d) transmissions in engine order: delivering hops first, then
  /// accepted hops, each group ascending by receiving node / travel
  /// direction. Empty in the prepare() digest.
  std::span<const MoveRecord> moves;

  /// Packets with source == dest that the injection phase of this step
  /// delivered without ever entering the network, ascending by PacketId.
  std::span<const PacketId> injected_deliveries;

  // Ready-made counters (all derivable from the spans; precomputed so
  // cheap consumers never touch the records).
  std::int64_t deliveries = 0;  ///< total deliveries incl. injected ones
  std::int64_t injections = 0;  ///< successful entries incl. injected deliveries
  /// Packets left outside the network by this step's injection because
  /// their source queue was full (fault-deferred ones not included).
  std::int64_t injections_waiting = 0;
  std::array<std::int64_t, kNumDirs> moves_by_dir{};  ///< link utilisation
  std::int64_t exchanges = 0;   ///< adversary exchanges during phase (b)
  Step stall_run = 0;  ///< consecutive no-progress steps including this one

  // Fault-injection counters (sim/fault.hpp); zero unless a fault
  // schedule is installed and active.
  std::int64_t fault_blocked = 0;   ///< scheduled moves dropped on down links
  std::int64_t fault_deferred = 0;  ///< injections deferred at down sources
};

/// The observation interface: one digest per executed step. Observation
/// never influences routing. Packet records read through the Sim inside
/// a callback show end-of-step state (after phase (e)), which for every
/// digest field referenced here is identical to the state at transmission
/// time except for queue-slot indices.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  /// Called once at the end of prepare(): the initial configuration is
  /// final; the digest carries step 0 and any source==dest deliveries.
  virtual void on_prepare(const Sim&, const StepDigest&) {}
  virtual void on_step(const Sim&, const StepDigest&) = 0;
};

/// Per-event observation on top of the digest: a StepObserver whose
/// on_prepare/on_step replay each StepDigest as on_deliver / on_move /
/// on_step_end calls. Per step it reports the injected deliveries, then
/// each move (with on_deliver right after a delivering hop), then
/// on_step_end — the order the engine emitted inline before digests
/// existed. It costs a virtual call per event; write new observers as
/// StepObservers. Its last user is perfbench's StepClock, and it is
/// deleted together with that class's port (ROADMAP, the perfbench item).
class Observer : public StepObserver {
 public:
  /// Called once at the end of prepare(): the initial configuration is
  /// final and source==dest packets have already been delivered (step 0).
  virtual void on_prepare_end(const Sim&) {}
  virtual void on_step_end(const Sim&) {}
  virtual void on_deliver(const Sim&, const Packet&) {}
  virtual void on_move(const Sim&, const Packet&, NodeId from, NodeId to) {
    (void)from;
    (void)to;
  }

  void on_prepare(const Sim& e, const StepDigest& d) final;
  void on_step(const Sim& e, const StepDigest& d) final;
};

}  // namespace mr
