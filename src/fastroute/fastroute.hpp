// The §6 deterministic, minimal adaptive, O(n)-time, O(1)-queue routing
// algorithm (Theorem 34).
//
// Structure (paper §6.1): the four direction classes NE, NW, SE, SW are
// routed sequentially. For each class, iterations j = 0, 1, ... use tiles
// of side T = n/3^j (three shifted tilings per Lemma 19, one at j = 0); a
// Vertical Phase (March → Sort&Smooth even → Sort&Smooth odd → Horizontal
// Balancing) runs for each tiling, then a Horizontal Phase (the transpose)
// for each tiling. When T < 27 the remaining packets — now within 2 rows
// and 2 columns of their destinations (Lemma 18 with d = 1) — are finished
// by ≤ 14 steps of farthest-first dimension-order routing (Lemma 32).
//
// Every phase has an a-priori duration (Lemmas 29–31), so nodes need no
// global communication: the whole schedule is a fixed timeline, a pure
// function of (n, q0, q_later) that every instance builds for itself. All
// per-phase rules are expressed in a canonical coordinate frame (rotation
// per class, plus a transpose for horizontal phases) so the Vertical Phase
// code serves all eight phase variants.
//
// The router keeps no routing state of its own: everything it remembers
// lives in the Sim's state words, so snapshots carry it and every row band
// of a sharded engine reads the same state.
//   * Packet::state — bit 0 participates, bit 1 active (both frozen at the
//     March entry, or the base-case entry), bit 2 forward (Sort&Smooth: the
//     receiving node passes it on), bit 3 moved north (its last arrival was
//     a canonical-north hop, judged in the frame of the segment the hop
//     happened in), bit 4 parked (it cannot move again before the subphase
//     ends: on the top row of its staging strip in a March, held in strip
//     i−2 in a Sort&Smooth substep; lets idle nodes skip the frame
//     geometry), bits 8–15 the canonical destination strip (frozen with the
//     flags).
//   * Sim::node_state — bits 0–30 a counter: the staging occupancy in a
//     March, the received count in a Sort&Smooth substep, the active
//     occupancy in a Balance; bit 31 settled (no packet here can be
//     scheduled before the segment ends unless another arrives, so
//     plan_out returns at once); bits 32–47 the node's occupancy when the
//     word was written, so a node whose packets did not change is not
//     recounted; bits 48–63 the index + 1 of the segment that wrote it, so
//     a word stamped by another segment reads as 0 and an empty node never
//     needs a reset.
// update_state folds the step's arrivals in (in packet-id order) and, at a
// segment's last step, freezes the next segment's flags and recounts its
// node counters.
//
// The per-phase lemmas (29–32) are checked by FastRouteOracle
// (check/fastroute_oracle.hpp), which also measures per-segment activity;
// the router itself only asserts the no-overshoot invariant of the 2-rule
// (Lemmas 16/17).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/algorithm.hpp"

namespace mr {

class Sim;

class FastRouteAlgorithm final : public Algorithm {
 public:
  struct Options {
    /// March/staging capacity: q = 17·(27−3) = 408 in the baseline
    /// analysis; §6.4's improvement uses q = 17·(9−3) = 102 for j ≥ 1.
    int q0 = 408;
    int q_later = 408;  ///< set to 102 for the "improved" variant

    static Options baseline() { return Options{408, 408}; }
    static Options improved() { return Options{408, 102}; }
  };

  enum class Kind : std::uint8_t {
    March,
    SortSmoothEven,
    SortSmoothOdd,
    Balance,
    BaseCase,
  };

  /// One segment of the timeline, with its canonical frame.
  struct Segment {
    Kind kind = Kind::March;
    int cls = 0;        ///< 0 NE, 1 NW, 2 SW, 3 SE
    int j = 0;          ///< iteration
    int tiling = 0;     ///< 0..2
    bool horizontal = false;  ///< part of a Horizontal Phase (transposed)
    std::int32_t tile = 0;    ///< tile side T (0 for the base case)
    std::int32_t d = 0;       ///< strip height T/27 (0 for the base case)
    Step start = 0;           ///< segment covers steps (start, start+length]
    Step length = 0;
    int q = 408;              ///< March staging capacity
    std::int32_t n = 0;       ///< mesh side
    Dir north = Dir::North;   ///< real direction of canonical north
    Dir east = Dir::East;     ///< real direction of canonical east

    Step end() const { return start + length; }
    /// Canonical coordinates: `cls` clockwise quarter-turns, then a
    /// transpose in horizontal phases.
    Coord canon(Coord real) const;
    /// Canonical row offset from the SW corner of the node's tile.
    std::int32_t row_in_tile(Coord canon) const;
    /// Strip (of height d) of a canonical coordinate within its tile.
    std::int32_t strip_of(Coord canon) const { return row_in_tile(canon) / d; }
    bool same_tile(Coord canon_a, Coord canon_b) const;
  };

  /// The fixed §6 timeline for an n×n mesh: a pure function of
  /// (n, q0, q_later). Throws unless n is a power of 3 and n ≥ 27.
  struct Schedule {
    Schedule(std::int32_t n, Options options);

    std::int32_t n;
    std::vector<Segment> segments;
    Step length = 0;  ///< total steps

    /// Index of the segment containing step t (1-based), or
    /// segments.size() past the end of the schedule. O(1).
    std::size_t segment_at(Step t) const {
      return t > length ? segments.size()
                        : segment_of_step[static_cast<std::size_t>(t)];
    }

   private:
    /// segment_at for steps 0..length (step 0 maps to segment 0).
    std::vector<std::uint16_t> segment_of_step;
  };

  explicit FastRouteAlgorithm(Options options = Options::baseline());

  /// "fastroute", or "fastroute-improved" when q_later < q0.
  std::string name() const override;
  bool minimal() const override { return true; }

  void init(Sim& e) override;
  void plan_out(Sim& e, NodeId u, OutPlan& plan) override;
  void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
               InPlan& plan) override;
  void update_state(Sim& e, NodeId v) override;

  const Options& options() const { return options_; }
  static const char* kind_name(Kind k);
  static const char* class_name(int cls);

  /// Total queue bound the engine should be configured with (Lemma 28).
  int queue_bound() const;

 private:
  const Schedule& schedule_for(const Sim& e);
  void enter_segment(Sim& e, NodeId v, std::size_t idx) const;
  void summarize(Sim& e, NodeId v, std::size_t idx,
                 std::uint32_t received) const;

  void plan_march(Sim& e, NodeId u, OutPlan& plan, std::size_t idx) const;
  void plan_sort_smooth(Sim& e, NodeId u, OutPlan& plan, std::size_t idx,
                        bool even) const;
  void plan_balance(Sim& e, NodeId u, OutPlan& plan, std::size_t idx) const;
  void plan_base_case(Sim& e, NodeId u, OutPlan& plan,
                      std::size_t idx) const;

  Options options_;
  /// Built on first use from the mesh side; identical in every instance.
  std::optional<Schedule> schedule_;
};

/// Direction class of a packet from its source→destination displacement:
/// 0 NE (north or northeast), 1 NW (west or northwest), 2 SW (south or
/// southwest), 3 SE (east or southeast; also source == destination).
int fastroute_class(Coord src, Coord dst);

}  // namespace mr
