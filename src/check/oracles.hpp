// Paper-invariant oracles: independent StepObservers that re-derive the
// model's invariants from first principles and throw InvariantViolation
// (with an "[oracle:<name>]" message prefix) on any breach.
//
// The engines enforce some of these invariants inline (queue overflow,
// minimality of scheduled moves); the oracles deliberately re-check them
// from the *observable* record — the StepDigest and the post-step
// configuration — through independent code paths, so a bookkeeping bug in
// either engine (a drifted occupancy counter, a stale cached mask, a
// mis-built digest) is caught even when the inline check passes.
//
// All oracles attach to any Sim (optimized Engine or ReferenceEngine) via
// add_observer(StepObserver*). They can also replay offline: a recorded
// TraceRecorder stream passes through run_trace_oracles(), which rebuilds
// queue occupancy from the move events alone.
//
// Per-step cost: QueueBoundOracle scans every queue, O(nodes + queued
// packets), by design — a drifted counter can sit at any node.
// LinkCapacityOracle, ProfitableMoveOracle and the move checks of
// BoxEscapeOracle are O(moves), with no sort, allocation or virtual
// topology call per step. ExchangeConsistencyOracle is O(packets), plus a
// sort of the destinations in steps with exchanges; BoxEscapeOracle's
// confinement checks are O(class packets).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "lower_bound/classes.hpp"
#include "sim/algorithm.hpp"
#include "sim/sim.hpp"
#include "sim/trace.hpp"
#include "topo/topology.hpp"

namespace mr {

/// A set of dense keys that is emptied in O(1) per step: a key is in the
/// set iff its stamp equals the current epoch. The table grows on demand
/// and never shrinks; keys stamped in an earlier step (or for an earlier,
/// smaller sim) hold older epochs and read as absent.
class StepStamps {
 public:
  /// Starts a new step over keys [0, size) with an empty set.
  void next_step(std::size_t size);

  /// Adds `key`; returns false if it was already added this step.
  bool insert(std::size_t key) {
    if (stamps_[key] == epoch_) return false;
    stamps_[key] = epoch_;
    return true;
  }

 private:
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamps_;
};

/// Queue bound of §2: no queue ever holds more than k packets — the
/// central queue for the Central layout, each of the four inlink queues
/// for the PerInlink layout (§5, Theorem 15). Counted by scanning the
/// actual queues, then cross-checked against the sim's own occupancy
/// accessors so counter drift is caught too. Also verifies queue/location
/// consistency of every queued packet.
class QueueBoundOracle : public StepObserver {
 public:
  void on_prepare(const Sim& e, const StepDigest& d) override { check(e, d); }
  void on_step(const Sim& e, const StepDigest& d) override { check(e, d); }

 private:
  void check(const Sim& e, const StepDigest& d) const;
};

/// Link capacity of §2: each directed link carries at most one packet per
/// step, every hop goes to the sender's neighbour in the recorded travel
/// direction, and no packet moves twice in one step. Also checks the
/// digest against the post-step configuration: an accepted packet sits at
/// its recorded receiving node, a delivering hop left the network.
class LinkCapacityOracle : public StepObserver {
 public:
  void on_step(const Sim& e, const StepDigest& d) override;

 private:
  /// Directed links (node × dir) and packets used in the current step.
  StepStamps links_;
  StepStamps packets_;
};

/// Minimality (§2) for minimal algorithms: every transmitted hop strictly
/// reduces the L1 distance to the packet's destination (which is stable
/// from phase (b) on, so the post-step destination is the transmit-time
/// one). For non-minimal algorithms with a stray bound δ, checks the
/// expanded-rectangle containment of §5 instead.
class ProfitableMoveOracle : public StepObserver {
 public:
  /// `minimal` mirrors Algorithm::minimal(); `max_stray` mirrors
  /// Algorithm::max_stray() and is only consulted when !minimal.
  explicit ProfitableMoveOracle(bool minimal, int max_stray = -1)
      : minimal_(minimal), max_stray_(max_stray) {}

  void on_step(const Sim& e, const StepDigest& d) override;

 private:
  bool minimal_;
  int max_stray_;
};

/// DX exchange consistency (§2/§3): destination addresses only ever change
/// through the adversary's exchange operation — so between steps with
/// digest.exchanges == 0 every destination is unchanged, exchanges
/// permute the destination multiset but never invent addresses, and
/// sources are immutable always.
class ExchangeConsistencyOracle : public StepObserver {
 public:
  void on_prepare(const Sim& e, const StepDigest& d) override;
  void on_step(const Sim& e, const StepDigest& d) override;

 private:
  void snapshot(const Sim& e);

  bool primed_ = false;
  std::vector<NodeId> sources_;
  std::vector<NodeId> dests_;
};

/// Box-escape invariants of the Ω(n²/k²) construction (§4.1, Lemmas 1–8),
/// generalized from main_construction's run so any engine driving the
/// construction geometry can be checked:
///   * Lemma 1: no class-i packet leaves the i-box at a step ≤ (i−1)·dn;
///   * Lemma 2: at most one N_i- and one E_i-packet leave the i-box per
///     step within the class window (steps ≤ i·dn);
///   * Lemmas 5/6: classes j ≥ w+2 stay confined to the w-box, where w is
///     the current window index ⌊(t−1)/dn⌋;
///   * Lemma 7/8: within its window an N_i-packet is never at/north of the
///     E_i-row while west of the N_i-column (mirrored for E_i).
/// The lemmas are theorems: a violation means the construction or engine
/// diverged from the paper.
///
/// Lemmas 5–8 only relax as t grows (i-boxes nest, and both conditions bind
/// fewer classes at later steps), so a packet that neither moved nor had
/// its destination exchanged cannot newly violate them. The oracle scans
/// every class packet on the first step it sees, on a step that does not
/// follow the last one seen (a restore) and on a step with exchanges;
/// otherwise it checks only the packets that moved. The first failing step
/// is the one a full scan on every step would report.
class BoxEscapeOracle : public StepObserver {
 public:
  /// `class_packet_count`: the first class_packet_count PacketIds are the
  /// class packets; fillers beyond are never classed.
  BoxEscapeOracle(const MainGeometry& geometry, std::int32_t dn,
                  std::size_t class_packet_count);

  std::int64_t max_escapes_per_step() const { return max_escapes_; }

  void on_step(const Sim& e, const StepDigest& d) override;

 private:
  /// Lemmas 5–8 for class packet `id` at step t.
  void check_confinement(const Sim& e, PacketId id, Step t) const;

  MainGeometry geo_;
  std::int32_t dn_;
  std::size_t class_count_;
  std::vector<std::int64_t> escapes_n_;
  std::vector<std::int64_t> escapes_e_;
  std::int64_t max_escapes_ = 0;
  /// Last step seen; -1 before the first, which no step (≥ 1) follows.
  Step last_step_ = -1;
};

/// Order-sensitive FNV-1a hash over every StepDigest a sim emits
/// (prepare included). Two engines that emit identical digest streams —
/// same moves in the same order, same counters — have equal hashes; the
/// differential fuzzer compares them per step.
class DigestHasher : public StepObserver {
 public:
  std::uint64_t hash() const { return hash_; }

  void on_prepare(const Sim&, const StepDigest& d) override { mix(d); }
  void on_step(const Sim&, const StepDigest& d) override { mix(d); }

 private:
  void mix(const StepDigest& d);

  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Offline replay of the structural oracles over a recorded TraceRecorder
/// stream: rebuilds queue occupancy (per node for the Central layout, per
/// inlink queue for PerInlink) from the move/deliver events alone and
/// re-checks the queue bound ≤ k, link capacity, hop adjacency,
/// one-move-per-packet-per-step and position continuity. `packets`
/// supplies sources, destinations and injection steps
/// (Sim::all_packets()). Injection timing is replayed with the engines'
/// waiting rule; since that derives a packet's inlink tag from its
/// destination, the replay assumes an exchange-free run (destinations as
/// recorded are the ones the packets always carried). When the run
/// carried a fault schedule, pass it as `faults` so the replay mirrors
/// the engines' injection deferral at down nodes (the schedule does not
/// otherwise change the replayed checks — dropped moves simply never
/// appear in the trace). Returns the empty string when every check
/// passes, else a description of the first violation.
std::string run_trace_oracles(const std::vector<TraceEvent>& events,
                              const Topology& mesh,
                              const std::vector<Packet>& packets,
                              int queue_capacity, QueueLayout layout,
                              const FaultSchedule* faults = nullptr);

}  // namespace mr
