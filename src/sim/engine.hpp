// Discrete-step, multi-port, synchronous mesh routing engine (paper §2).
//
// Engine is the optimized implementation of the Sim interface
// (sim/sim.hpp): it owns the network configuration (packets, per-node
// queues and states) and executes the five-phase step of §3 under a
// pluggable Algorithm. It validates the model's invariants at runtime:
//   * queue occupancy never exceeds k (per queue for the per-inlink layout),
//   * minimal algorithms only ever move packets along profitable outlinks,
//   * at most one packet is scheduled per outlink and accepted per inlink.
// Violations throw mr::InvariantViolation rather than silently corrupting
// the run.
//
// Determinism: with a fixed initial configuration and algorithm the engine
// is bit-reproducible; all iteration orders are by ascending NodeId and
// travel direction. The naive ReferenceEngine (check/reference_engine.hpp)
// implements the same observable semantics move for move; the differential
// fuzzer (check/fuzz.hpp) asserts the two stay bit-identical.
//
// There is one step pipeline (DESIGN.md §9). It tiles the mesh into
// Config::shards horizontal row bands (one by default) and runs each phase
// band by band, on a persistent worker pool when there are several bands
// and threads, exchanging frontier offers/acceptances at band boundaries
// through single-writer mailboxes between barrier-separated phases. The
// handoff protocol preserves the ascending-NodeId iteration order of the
// one-band case, so fingerprints, digests and counters are bit-identical
// for every shards/threads combination. Phase (b) runs on the
// coordinator, which is why a StepInterceptor requires one band.
//
// Per-step cost is O(active nodes + moves): queue occupancy is maintained
// as incremental counters, packets carry their queue-slot index and cached
// profitable mask, each band's active-node list stays sorted by merging
// newly activated nodes instead of re-sorting, and offers are grouped by
// receiving node via a 4-way merge of the per-direction move streams
// instead of a comparison sort.
//
// Observation is digest-based: the engine batches each step's moves,
// deliveries and counters into one StepDigest and dispatches a single
// on_step callback per observer per step — no virtual calls on the
// per-move hot path. Legacy per-event Observers attach through
// LegacyObserverAdapter with bit-identical event order. Optional phase
// profiling (set_phase_profiling) accumulates wall-clock per §3 phase.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/assert.hpp"
#include "core/types.hpp"
#include "core/worker_pool.hpp"
#include "sim/algorithm.hpp"
#include "sim/packet.hpp"
#include "sim/sim.hpp"
#include "sim/snapshot.hpp"
#include "topo/topology.hpp"

namespace mr {

/// The five phases of the §3 step pipeline, in execution order. Indices
/// into PhaseProfile::seconds.
enum class StepPhase : std::uint8_t {
  PlanOut = 0,      ///< injection + (a) outqueue policies + plan validation
  Interceptor = 1,  ///< (b) adversary exchanges
  PlanIn = 2,       ///< (c) offer grouping + inqueue policies
  Transmit = 3,     ///< (d) transmissions + capacity checks
  Update = 4,       ///< (e) state updates + active-list compaction
};
inline constexpr int kNumPhases = 5;

constexpr const char* phase_name(StepPhase p) {
  switch (p) {
    case StepPhase::PlanOut: return "plan_out";
    case StepPhase::Interceptor: return "interceptor";
    case StepPhase::PlanIn: return "plan_in";
    case StepPhase::Transmit: return "transmit";
    case StepPhase::Update: return "update";
  }
  return "?";
}

/// Wall-clock profile of the step pipeline, accumulated by the engine when
/// phase profiling is enabled. Injection shares a task with phase (a) and
/// is counted under PlanOut. `total_seconds` covers whole steps (observer
/// dispatch included), so total_seconds - sum(seconds) is the
/// out-of-phase overhead.
struct PhaseProfile {
  std::array<double, kNumPhases> seconds{};
  double total_seconds = 0;
  std::int64_t steps = 0;

  double phase_seconds_sum() const {
    double s = 0;
    for (double v : seconds) s += v;
    return s;
  }
};

class Engine : public Sim {
 public:
  struct Config {
    int queue_capacity = 1;  ///< k, packets per queue (must be >= 1)
    /// Abort run() after this many consecutive steps with no movement, no
    /// delivery and no successful injection while no future-dated
    /// injection is pending (0 disables the check; negative is rejected).
    /// Packets waiting outside the network for a full source queue do NOT
    /// defer the check: they can only enter once something moves, so
    /// counting those steps is what detects a deadlocked network with a
    /// non-empty external buffer.
    Step stall_limit = kDefaultStallLimit;
    /// Open-loop stall policy: when true, a step with no movement and no
    /// successful injection counts toward stall_limit even while
    /// future-dated injections are pending. Required for open-loop traffic
    /// runs, where a pump keeps a generation-ahead window of pending
    /// injections alive for the whole run and the default "no future-dated
    /// injection is pending" clause would otherwise never let a deadlocked
    /// network trip the limit. Off by default (batch semantics unchanged).
    bool stall_counts_pending_injections = false;
    /// Row bands of the step pipeline: the mesh is tiled into this many
    /// horizontal bands, each stepping independently between deterministic
    /// frontier handoffs (see DESIGN.md §9). Clamped to the mesh height.
    /// Results are bit-identical for every shards/threads combination; 1
    /// (the default) is the one-band case, the only one a StepInterceptor
    /// accepts.
    int shards = 1;
    /// Worker threads stepping the bands: 1 runs the bands serially on the
    /// calling thread, 0 uses default_thread_count(), values above the
    /// band count are clamped. More than one thread requires the
    /// AlgorithmFactory constructor (per-band algorithm instances).
    int threads = 1;
  };

  /// Creates per-band Algorithm instances so bands can plan concurrently
  /// (Algorithm implementations may keep per-call scratch and are not
  /// required to be thread-safe across nodes). All instances must be
  /// identically configured; only the first is init()ed, so algorithm
  /// state must live in the Sim (true for every in-tree algorithm).
  using AlgorithmFactory = std::function<std::unique_ptr<Algorithm>()>;

  Engine(const Topology& topo, Config config, Algorithm& algorithm);
  Engine(const Topology& topo, Config config, const AlgorithmFactory& factory);

  // --- setup (before prepare()) ----------------------------------------
  /// Adds a packet. injected_at = 0 places it in its source queue before
  /// step 1; later values model dynamic injection (§5 h-h discussion): the
  /// packet enters its source queue at the start of that step, waiting in
  /// an external buffer while the queue is full.
  PacketId add_packet(NodeId source, NodeId dest, Step injected_at = 0);

  /// Open-loop injection pump hook: adds a packet AFTER prepare(), to be
  /// injected at a future step. Requires injected_at > step() and, so the
  /// injection buffer stays sorted without a re-sort, injected_at no
  /// earlier than the last still-pending scheduled injection. Pumped
  /// packets are indistinguishable from packets pre-scheduled with
  /// add_packet for the same step: per-step behaviour, digests and
  /// fingerprints are bit-identical either way.
  PacketId pump_packet(NodeId source, NodeId dest, Step injected_at);

  void set_interceptor(StepInterceptor* interceptor) {
    // Phase (b) sees the whole step's move list at once and may exchange
    // destinations of packets anywhere in the mesh, so the coordinator runs
    // it between the plan-out and plan-in barriers on band 0's moves.
    MR_REQUIRE_MSG(num_shards_ == 1 || interceptor == nullptr,
                   "StepInterceptor requires one band (Config::shards = 1)");
    interceptor_ = interceptor;
  }

  /// Number of row bands actually in use (config value clamped to the mesh
  /// height); 1 is the one-band case, stepped on the calling thread.
  int shard_count() const { return num_shards_; }
  /// Execution lanes stepping the bands (1 = serial).
  int thread_count() const {
    return pool_ ? static_cast<int>(pool_->thread_count()) : 1;
  }

  /// Enables (or disables) wall-clock profiling of the five step phases.
  /// Off by default; when off, stepping performs no clock reads.
  void set_phase_profiling(bool enabled) { profiling_ = enabled; }
  bool phase_profiling() const { return profiling_; }
  const PhaseProfile& phase_profile() const { return phase_profile_; }

  /// Finalises the initial configuration: injects step-0 packets, delivers
  /// source==dest packets, calls Algorithm::init, then notifies observers
  /// via on_prepare_end. Must be called exactly once before stepping.
  void prepare();

  // --- execution --------------------------------------------------------
  /// Executes one step of the §3 pipeline. Returns false if the network
  /// was already drained (no step executed).
  bool step_once();

  /// Steps until all packets are delivered or max_steps executed or the
  /// stall limit trips. Returns the number of the last executed step.
  Step run(Step max_steps);

  // --- checkpointing (sim/snapshot.hpp) ----------------------------------
  /// Captures the complete between-steps state as an EngineSnapshot. Only
  /// valid between steps (after prepare()); the snapshot carries the run
  /// identity (topology/algorithm/k/layout/shards) for restore-time
  /// validation. Pure observation: the engine is unchanged.
  EngineSnapshot snapshot() const;

  /// Resets this engine to the state `snap` describes. The engine must
  /// have been constructed with the same topology, algorithm, queue
  /// capacity and shard count as the snapshotting engine, or
  /// SnapshotError{Mismatch} is thrown (naming the field); internally
  /// inconsistent snapshot contents throw SnapshotError{Format}. Works on
  /// a fresh engine (restore instead of prepare()) and on a prepared one
  /// (rewind/fast-forward in place; attached observers stay attached).
  /// Algorithm::init is NOT re-run: algorithm state lives in the node and
  /// packet state words, which the snapshot carries. Continuation is
  /// bit-identical to the run the snapshot was taken from.
  void restore(const EngineSnapshot& snap);

  // --- Sim interface -----------------------------------------------------
  /// Nodes currently holding at least one packet, ascending by NodeId.
  /// Valid between steps, inside on_prepare_end / on_step_end and in
  /// phase (b). With one band this is the band's own list; with several
  /// the global list is rebuilt lazily by concatenating the per-band lists
  /// (bands own contiguous ascending NodeId ranges, so the concatenation
  /// is sorted).
  std::span<const NodeId> active_nodes() const override;
  /// Occupancy of one inlink queue (PerInlink layout only). O(1): read
  /// from the incrementally maintained counters.
  int occupancy(NodeId u, QueueTag tag) const override {
    MR_REQUIRE(layout_ == QueueLayout::PerInlink);
    return inlink_occ_[inlink_index(u, tag)];
  }
  using Sim::occupancy;
  void exchange_destinations(PacketId a, PacketId b) override;

 private:
  /// One row band of the step pipeline: bands own contiguous NodeId
  /// ranges (row-major ids), so per-band sorted lists concatenate to
  /// globally sorted lists — the property the deterministic handoff
  /// protocol rests on. All vectors are reused across steps.
  struct Shard {
    NodeId node_begin = 0;
    NodeId node_end = 0;  ///< one past the last owned node

    /// Ownership test for the per-move loops: two compares, where
    /// shard_of_node() divides by the mesh width.
    bool owns(NodeId u) const { return u >= node_begin && u < node_end; }

    // Nodes of the band holding >=1 packet. The first active_sorted
    // entries are sorted ascending; place_packet appends newly activated
    // nodes past that prefix and the injection and update phases merge
    // them in. Idle nodes cost nothing per step.
    std::vector<NodeId> active;
    std::size_t active_sorted = 0;

    // Injection: packets due earlier whose source queue was full, and the
    // per-step staging list (waiting + newly due, sorted by id).
    std::vector<PacketId> waiting;
    std::vector<PacketId> due;
    std::vector<PacketId> injected_deliveries;

    // Phase (a) output, classified after phase (b). Offers that stay in
    // the band go to dir_offers, bucketed by travel direction: for a fixed
    // direction the neighbour map is monotone in the sender, so each bucket
    // is sorted by receiving node by construction (torus wrap links
    // excepted). Offers crossing the band edge go to the frontier
    // mailboxes, consumed by the cyclic successor (frontier_up, travelling
    // north) or predecessor (frontier_down, travelling south). Single
    // writer per mailbox, read only after the phase barrier.
    std::vector<ScheduledMove> moves;
    std::vector<ScheduledMove> deliveries;
    std::array<std::vector<Offer>, kNumDirs> dir_offers;
    std::vector<Offer> frontier_up;
    std::vector<Offer> frontier_down;

    // Phase (c): North/South offer lists with the neighbour frontiers
    // spliced in (built only when a frontier is non-empty), accepted
    // offers (receivers in this band), and accept-back mailboxes telling
    // the sender band which of its frontier offers were accepted (consumed
    // after the phase barrier by prev/next).
    std::array<std::vector<Offer>, kNumDirs> in_offers;
    std::vector<Offer> accepted;
    std::vector<Offer> accept_back_prev;  ///< senders in the cyclic predecessor
    std::vector<Offer> accept_back_next;  ///< senders in the cyclic successor

    // Per-band scratch and per-step counters, folded by the coordinator.
    std::vector<Offer> group;
    OutPlan out_plan;
    InPlan in_plan;
    std::int64_t injected = 0;
    std::int64_t moved = 0;
    std::int64_t delivered = 0;
    std::int64_t arrivals = 0;
    std::int64_t fault_blocked = 0;
    std::int64_t fault_deferred = 0;
    int max_occupancy = 0;
  };

  void place_packet(PacketId p, NodeId node, QueueTag tag,
                    std::vector<NodeId>& active_out);
  void remove_from_node(PacketId p);
  void validate_out_plan(NodeId u, const OutPlan& plan);
  void check_capacity_after_transmit(NodeId v);
  void record_occupancy(NodeId u, int& peak);
  QueueTag arrival_tag(Dir travel_dir) const;
  QueueTag injection_queue_tag(PacketId p) const;
  std::size_t inlink_index(NodeId u, QueueTag tag) const {
    return static_cast<std::size_t>(u) * kNumDirs + tag;
  }
  /// Devirtualised neighbour lookup for the plan/validate inner loops:
  /// one flat table built from the topology at construction, indexed by
  /// (node, direction). kInvalidNode marks a missing link.
  NodeId neighbor_of(NodeId u, Dir d) const {
    return neighbor_tab_[static_cast<std::size_t>(u) * kNumDirs +
                         static_cast<std::size_t>(dir_index(d))];
  }

  // --- the banded step pipeline (see DESIGN.md §9) ----------------------
  Engine(const Topology& topo, Config config, std::unique_ptr<Algorithm> first,
         const AlgorithmFactory& factory);
  /// Shared constructor tail: validates the config, sizes the per-node
  /// state, carves the row bands and creates the worker pool.
  void init_engine(const Config& config);
  /// Coordinator: hands every packet due this step to its source band,
  /// where it joins the band's waiting list in `due`.
  void stage_injections();
  /// Resets the band's per-step counters, injects its due packets (in id
  /// order) into their source queues and merges the band's active list.
  void inject_band(Shard& sh, bool observed);
  /// Drops scheduled moves over unavailable links (down link, down
  /// endpoint) in place, counting them into `blocked`. No-op unless a
  /// fault is active. Runs after phase (a) — before the adversary and the
  /// delivery classification — so a non-minimal router's deflection onto a
  /// dead link is caught too.
  void filter_faulted_moves(std::vector<ScheduledMove>& moves,
                            std::int64_t& blocked);
  /// Splits the band's moves into deliveries, own-band offers and frontier
  /// offers, by the destinations they carry after phase (b).
  void classify_moves(std::size_t si);
  /// Folds the band counters into the engine totals and the bands'
  /// injected deliveries (collected only when observed) into
  /// injected_deliveries_, and marks the active-list cache stale. Returns
  /// the number of packets that moved.
  std::int64_t fold_band_counters();
  /// Runs fn(s) for every band, on the pool when one exists. A full
  /// barrier; exceptions rethrow from the lowest band index.
  template <typename Fn>
  void run_shards(const Fn& fn);
  int shard_of_node(NodeId u) const {
    return band_of_row_[static_cast<std::size_t>(u) /
                        static_cast<std::size_t>(topo_width_)];
  }

  Algorithm* algorithm_;  ///< instance 0; planning uses shard_algorithms_
  std::vector<std::unique_ptr<Algorithm>> owned_algorithms_;
  /// Planning instance per band (all aliases of algorithm_ when the
  /// reference constructor was used).
  std::vector<Algorithm*> shard_algorithms_;
  int num_shards_ = 1;
  std::vector<std::int32_t> band_of_row_;
  std::vector<Shard> shards_;
  std::unique_ptr<WorkerPool> pool_;
  /// False when the per-band active lists are ahead of active_; the global
  /// list is rebuilt on demand in active_nodes().
  mutable bool active_cache_valid_ = true;
  Step stall_limit_;
  bool stall_counts_pending_;
  bool enforce_minimal_;
  int max_stray_ = -1;  ///< §5 nonminimal containment (when not minimal)

  /// PerInlink layout only: occupancy counter per (node, inlink queue),
  /// updated in place_packet/remove_from_node.
  std::vector<std::int32_t> inlink_occ_;

  /// Flat (node × direction) neighbour table; see neighbor_of(). Built
  /// once in init_engine so the step loops never call the virtual
  /// Topology::neighbor.
  std::vector<NodeId> neighbor_tab_;

  // injection buffer: (step, packet) sorted ascending; cursor advances.
  // Packets due earlier whose source queue was full wait in their band's
  // Shard::waiting list.
  std::vector<std::pair<Step, PacketId>> injections_;
  std::size_t injection_cursor_ = 0;

  StepInterceptor* interceptor_ = nullptr;

  bool prepared_ = false;
  Step stall_run_ = 0;
  /// Packets that entered the network (or were delivered at their source)
  /// during the current step's injection phase; part of stall detection.
  std::int64_t injected_this_step_ = 0;

  bool profiling_ = false;
  PhaseProfile phase_profile_;

  // With several bands: the concatenated per-band active lists, rebuilt
  // lazily inside const active_nodes(). Unused with one band.
  mutable std::vector<NodeId> active_;
  std::vector<std::uint8_t> is_active_;
  std::vector<std::uint8_t> packet_scheduled_;

  // Digest scratch (valid during observer dispatch only). digest_moves_ is
  // assembled after phase (e) — delivering hops first, then accepted hops,
  // both in engine order — and only when at least one observer is
  // registered.
  std::vector<MoveRecord> digest_moves_;
  std::vector<PacketId> injected_deliveries_;
  std::int64_t exchanges_before_step_ = 0;
};

}  // namespace mr
