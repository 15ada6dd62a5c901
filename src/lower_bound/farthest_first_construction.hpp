// §5 "Dimension Order Routing", farthest-first variant: the Ω(n²/k)
// construction for dimension-order routing with a farthest-first outqueue
// policy. This algorithm reads full destination addresses (it is NOT
// destination-exchangeable), so it gets its own construction:
//
//  * the N_i-column is the (n+1−i)-th column (easternmost first),
//  * the i-box is everything west of (and including) the N_i-column within
//    the cn southernmost rows,
//  * each node of the cn southernmost rows sends one packet; initially no
//    N_i-packet (i ≥ 2) sits in its own column, and within every row class
//    indices never increase from west to east,
//  * exchange rule: an N_j-packet scheduled to enter the N_j-column during
//    steps 1..(j−1)·dn is exchanged with the westernmost-in-its-row
//    N_{j−1}-packet in the (j+1)-box not scheduled to enter that column.
#pragma once

#include <string>
#include <vector>

#include "lower_bound/constants.hpp"
#include "lower_bound/construction.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {

class FarthestFirstConstruction : public LowerBoundConstruction {
 public:
  FarthestFirstConstruction(const Mesh& mesh,
                            const FarthestFirstLbParams& params);

  /// 0-based column of the N_i-column (column n−i).
  std::int32_t line(std::int64_t i) const {
    return static_cast<std::int32_t>(n_ - i);
  }

  /// Class index, or 0 if unclassed.
  std::int64_t classify(Coord source, Coord dest) const;

  Workload placement() const;

  struct RunResult : ConstructionRun {
    /// The per-row class-ordering invariant, sampled every 16 steps and at
    /// the certified step.
    bool row_order_ok = true;
  };
  RunResult run_construction(const std::string& algorithm, int k) const {
    return construct(algorithm, k, nullptr);
  }

  /// Farthest-first uses full destinations, so stepwise destination-less
  /// equality is NOT implied by Lemma 10; we still measure it.
  using ReplayResult = ConstructionReplay<RunResult>;
  ReplayResult verify_replay(const std::string& algorithm, int k,
                             Step replay_budget = 0) const;

 private:
  /// The construction run behind run_construction and verify_replay; see
  /// LowerBoundConstruction::drive for `stepwise_nodest`.
  RunResult construct(const std::string& algorithm, int k,
                      std::vector<std::uint64_t>* stepwise_nodest) const;
};

}  // namespace mr
