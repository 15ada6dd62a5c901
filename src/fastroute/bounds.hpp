// Analytical bounds of §6 (Lemmas 21–33, Theorem 34): queue-size and
// per-phase duration formulas, evaluated exactly so that the simulator can
// assert against them.
#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace mr {

struct FastRouteBounds {
  /// q = 17·(27−3) = 408 in the baseline analysis; the §6.4 improvement
  /// note uses q = 17·(9−3) = 102 for iterations j ≥ 1.
  int q = 408;

  /// Lemma 29: the March takes at most q·d − 1 steps.
  Step march_steps(std::int64_t d) const { return q * d - 1; }

  /// Lemma 30: each Sort and Smooth substep (even, then odd destination
  /// strips) takes at most (d−1) + q·d steps, the whole phase twice that.
  Step sort_smooth_substep_steps(std::int64_t d) const {
    return (d - 1) + q * d;
  }
  Step sort_smooth_steps(std::int64_t d) const {
    return 2 * sort_smooth_substep_steps(d);
  }

  /// Lemma 31: Horizontal Balancing takes at most 3h − 4 steps on an h×h
  /// tile.
  static Step balancing_steps(std::int64_t h) { return 3 * h - 4; }

  /// Lemma 32: the dimension-order base case takes at most 14 steps.
  static constexpr Step base_case_steps() { return 14; }

  /// Lemma 21/22/28: peak queue occupancies.
  int march_queue_bound() const { return q + 1; }
  int sort_smooth_queue_bound() const { return 2 * q + 1; }
  int total_queue_bound() const { return 2 * q + 18; }  // Lemma 28

  /// Theorem 34: whole-algorithm step bound (baseline 972n; §6.4's
  /// improved analysis gives 564n).
  static Step theorem34_steps(std::int64_t n) { return 972 * n; }
  static Step improved_steps(std::int64_t n) { return 564 * n; }
};

}  // namespace mr
