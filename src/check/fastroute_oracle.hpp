// Per-phase postconditions of the §6 router (Lemmas 18, 24 and 29–32) and
// its per-segment activity, checked from the observable record.
//
// FastRouteOracle follows the router's fixed timeline
// (FastRouteAlgorithm::Schedule) with its own bookkeeping, re-derived from
// packet positions and the digest moves rather than read from the router's
// state words:
//   * at each March entry it freezes participation (location and
//     destination in one tile) and activity (destination ≥ 3 strips north);
//   * March ends with every active packet in its staging strip (Lemma 29),
//     and no staging node ever holds more than q of them;
//   * each Sort&Smooth substep ends with its parity's active packets in
//     strip i−2 (Lemma 30);
//   * Balance ends with ≤ 2 active packets per node (Lemmas 24/31);
//   * the base case starts with every class packet within 2 rows and 2
//     columns of its destination (Lemma 18) and ends with all of them
//     delivered (Lemma 32);
//   * no active packet is delivered before its subphase ends.
// Each step's moves are replayed in packet-id order, so the transient
// per-node peaks come out exactly as a packet-by-packet scan finds them.
//
// Attach before prepare(): the oracle replays the run from step 0.
// Violations throw InvariantViolation prefixed "[oracle:fastroute]".
#pragma once

#include <cstdint>
#include <vector>

#include "fastroute/fastroute.hpp"
#include "sim/algorithm.hpp"

namespace mr {

class FastRouteOracle : public StepObserver {
 public:
  /// Activity of one segment, parallel to schedule().segments.
  struct SegmentStats {
    std::int64_t moves = 0;     ///< hops of the segment's class packets
    Step last_move_offset = 0;  ///< last step-within-segment with a hop
    /// Peak staging (March) / active (Balance) packets in one node.
    int peak_per_node = 0;
  };

  FastRouteOracle(std::int32_t n, FastRouteAlgorithm::Options options);

  const FastRouteAlgorithm::Schedule& schedule() const { return schedule_; }
  const std::vector<SegmentStats>& stats() const { return stats_; }

  void on_prepare(const Sim& e, const StepDigest& d) override;
  void on_step(const Sim& e, const StepDigest& d) override;

 private:
  void enter_segment(const Sim& e);
  void check_segment_end(const Sim& e) const;
  void replay_move(const Sim& e, const MoveRecord& m, Step t);

  FastRouteAlgorithm::Schedule schedule_;
  std::vector<SegmentStats> stats_;
  std::size_t current_ = 0;  ///< segment of the next step

  // Per packet, frozen at the March (or base-case) entry.
  std::vector<std::uint8_t> class_;
  std::vector<std::uint8_t> participates_;
  std::vector<std::uint8_t> active_;
  std::vector<std::int32_t> dest_strip_;
  /// Per node: staged (March) or active (Balance) packets.
  std::vector<std::int32_t> count_;
  std::vector<MoveRecord> by_packet_;  ///< scratch
};

}  // namespace mr
