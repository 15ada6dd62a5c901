// Destination-exchangeable (DX) algorithm interface (paper §2).
//
// §2 restricts the information a "simple" routing algorithm may use:
//   * outqueue policy: states, source addresses and profitable outlinks of
//     resident packets; the node's state;
//   * inqueue policy: additionally the scheduled packets' profitable
//     outlinks measured from the SENDING node;
//   * state updates: the same quantities.
// Crucially, a packet's destination address is visible only through its
// profitable-outlink mask. DxAlgorithm enforces this by construction: the
// dx_* callbacks receive PacketDxView records that simply do not contain
// the destination, and the adapter (this class) is the only code path from
// Engine to the policy. Lemma 10's exchange-equivariance is additionally
// property-tested in tests/dx_equivariance_test.cpp.
//
// Adapter contract (tests/dx_adapter_test.cpp). Views are copied from the
// Sim only for the callbacks that read them, and never carried across
// phases (the phase-(b) interceptor may change profitable masks in
// between):
//   * dx_init and dx_plan_out receive the node's resident views. A router
//     constructed with PlanOut::QueueOnly gets ctx.state and ctx.step() as
//     0 in dx_plan_out, so its plan is a function of the queue alone; the
//     engine then calls plan_out only on nodes whose queue changed since
//     their last plan (a packet arrived, left, changed state or had its
//     destination exchanged) and re-emits the cached plan elsewhere;
//   * dx_plan_in receives no resident views, only the offers: id, travel
//     direction and profitable outlinks from the sender. The queue counts
//     an inqueue policy needs — ctx.resident() and ctx.inlink_occupancy(t)
//     — are those at the start of phase (c);
//   * dx_update receives the resident views after transmission, and the
//     node and packet states it leaves are written back. A router that
//     constructs the adapter with Update::NodeState gets an empty span
//     instead: no views are built and only ctx.state is written back. One
//     built with Update::None never reaches dx_update: update_state
//     returns before building a context or views.
//
// NodeCtx is a handle, not a record: apart from the node and its state,
// every field is an accessor that reads the Sim when called, so a policy
// pays only for what it reads, and nothing is filled once per step or once
// per callback. Accessors are valid only during the callback the context is
// passed to. Phases (a)-(c) move no packet and phase (e) runs after
// transmission, so every value read equals the one at the callback's start.
//
// A node IS allowed to know its own identity, coordinates, the mesh shape,
// k and the global step counter: the lower-bound argument never relocates
// nodes, it only swaps destination addresses, so none of these break
// exchange-equivariance.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "sim/algorithm.hpp"
#include "sim/engine.hpp"

namespace mr {

/// The §2-legal view of a packet.
struct PacketDxView {
  PacketId id = kInvalidPacket;  ///< stable identity (not the destination)
  NodeId source = kInvalidNode;
  std::uint64_t state = 0;
  Step arrived_at = 0;       ///< arrival step at current node (§2 example)
  QueueTag queue = kCentralQueue;  ///< which inlink queue (PerInlink layout)
  /// Inlink the packet arrived on (kNoInlink when injected). DX-legal: the
  /// sender could have written it into the packet state.
  std::uint8_t arrival_inlink = kNoInlink;
  DirMask profitable = 0;    ///< the only destination-derived information
};

/// A scheduled packet offered to a node, with profitability measured from
/// the sender, as §2 prescribes. No other field of the packet is read.
struct DxOffer {
  PacketId id = kInvalidPacket;
  DirMask profitable = 0;  ///< profitable outlinks from the sending node
  Dir travel_dir = Dir::North;  ///< direction of the scheduled move
};

class DxAlgorithm : public Algorithm {
 public:
  /// Context of the node whose policy is running: the node, its state and
  /// accessors that read the Sim when called. Valid only during the
  /// callback it is passed to. The Sim is private, so no policy reaches a
  /// packet record or a destination through it.
  class NodeCtx {
   public:
    NodeId node = kInvalidNode;
    std::uint64_t state = 0;  ///< node state; written back after the call

    /// Step being executed (0 during init, and in dx_plan_out of a router
    /// constructed with PlanOut::QueueOnly).
    Step step() const { return hide_step_ ? 0 : sim_->step(); }
    Coord coord() const { return sim_->mesh().coord_of(node); }
    /// Mesh dimensions (a node knows the mesh).
    std::int32_t width() const { return sim_->mesh().width(); }
    std::int32_t height() const { return sim_->mesh().height(); }
    bool torus() const { return sim_->mesh().is_torus(); }
    int capacity() const { return sim_->queue_capacity(); }  ///< k

    /// Packets queued at this node, all queues together. §2-legal: the
    /// number of resident views, provided to the inqueue policy, which
    /// receives no views.
    int resident() const { return sim_->occupancy(node); }
    /// Occupancy of inlink queue t at this node (PerInlink layout only;
    /// 0 under the central layout). §2-legal: derivable from the resident
    /// packet views, read from the engine's counters so policies need not
    /// rescan the queue.
    int inlink_occupancy(int t) const {
      return sim_->queue_layout() == QueueLayout::PerInlink
                 ? sim_->occupancy(node, static_cast<QueueTag>(t))
                 : 0;
    }

    /// True when a non-empty fault schedule (sim/fault.hpp) is installed
    /// for this run — whether or not a window is active at this step.
    /// Policies whose acceptance rule rests on a guaranteed departure
    /// (Theorem 15) must fall back to conservative acceptance whenever
    /// this is set, for the WHOLE run: fault rerouting pushes row-phase
    /// packets through column links, and such a packet stays parked in a
    /// column queue after the window lifts, so the queue-phase structure
    /// those guarantees rest on is void globally and outlives every
    /// window. Environmental knowledge, not destination-derived, so
    /// exchange-equivariance is unaffected. Faults otherwise reach a
    /// policy only through the masked profitable outlinks.
    bool fault_mode() const { return !sim_->fault_schedule().empty(); }

    /// True if the outlink in direction d exists from this node.
    bool has_outlink(Dir d) const {
      if (torus()) return true;
      const Coord c = coord();
      switch (d) {
        case Dir::North: return c.row + 1 < height();
        case Dir::South: return c.row > 0;
        case Dir::East: return c.col + 1 < width();
        case Dir::West: return c.col > 0;
      }
      return false;
    }

   private:
    friend class DxAlgorithm;
    NodeCtx(const Sim& e, NodeId u, std::uint64_t s, bool hide_step)
        : node(u), state(s), sim_(&e), hide_step_(hide_step) {}

    const Sim* sim_;
    bool hide_step_;
  };

  /// What the router type's state update (dx_update) reads. Defined: the
  /// resident views, with node and packet states written back. NodeState:
  /// only the node context — dx_update gets an empty span and only
  /// ctx.state is written back. None: phase (e) skips the router;
  /// update_state still runs, so decorators see the call, but returns
  /// before touching the Sim.
  enum class Update { Defined, NodeState, None };

  /// What the router type's outqueue policy (dx_plan_out) reads. Node: the
  /// whole NodeCtx. QueueOnly: the resident views and the node-constant
  /// context only — dx_plan_out gets ctx.state and ctx.step() as 0 —
  /// so the router declares plan_out_reads_queue_only() and the engine
  /// re-uses a node's plan while its queue is unchanged.
  enum class PlanOut { Node, QueueOnly };

  // Adapter plumbing: translates Engine callbacks into DX views. Final so
  // subclasses cannot reopen access to destinations.
  void init(Sim& e) final;
  void plan_out(Sim& e, NodeId u, OutPlan& plan) final;
  void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
               InPlan& plan) final;
  void update_state(Sim& e, NodeId v) final;
  bool plan_out_reads_queue_only() const final {
    return plan_out_ == PlanOut::QueueOnly;
  }

 protected:
  explicit DxAlgorithm(Update update = Update::Defined,
                       PlanOut plan_out = PlanOut::Node)
      : update_(update), plan_out_(plan_out) {}

  /// Initial node state from the profitable outlinks of resident packets
  /// (§3: the initial state may depend on the packet that originates
  /// there). Packet `state` fields in `resident` may be modified; they are
  /// written back.
  virtual void dx_init(NodeCtx& ctx, std::span<PacketDxView> resident) {
    (void)ctx;
    (void)resident;
  }

  /// Outqueue policy: schedule at most one resident packet per outlink.
  /// ctx.state and ctx.step() read 0 on a router constructed with
  /// PlanOut::QueueOnly.
  virtual void dx_plan_out(NodeCtx& ctx,
                           std::span<const PacketDxView> resident,
                           OutPlan& plan) = 0;

  /// Inqueue policy: fill plan.accept (same indexing as offers). Must
  /// guarantee no overflow given that none of the node's own packets is
  /// certain to leave; ctx.resident() and ctx.inlink_occupancy(t) give
  /// the queue lengths at the start of phase (c).
  virtual void dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                          InPlan& plan) = 0;

  /// End-of-step state update; resident packet states may be modified and
  /// are written back. Default: no state. Called with an empty span on a
  /// router constructed with Update::NodeState, never on one constructed
  /// with Update::None.
  virtual void dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) {
    (void)ctx;
    (void)resident;
  }

 private:
  void fill_views(const Sim& e, NodeId u);

  Update update_;
  PlanOut plan_out_;
  // scratch, reused across callbacks
  std::vector<PacketDxView> views_;
  std::array<DxOffer, kNumDirs> dx_offers_;  ///< at most one per inlink
};

}  // namespace mr
