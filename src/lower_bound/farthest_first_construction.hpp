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
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {

class FarthestFirstConstruction {
 public:
  FarthestFirstConstruction(const Mesh& mesh,
                            const FarthestFirstLbParams& params);

  Step certified_steps() const { return certified_; }
  std::int64_t num_classes() const { return classes_; }

  /// 0-based column of the N_i-column (column n−i).
  std::int32_t line(std::int64_t i) const {
    return static_cast<std::int32_t>(n_ - i);
  }

  /// Class index, or 0 if unclassed.
  std::int64_t classify(Coord source, Coord dest) const;

  Workload placement() const;

  struct RunResult {
    Step steps = 0;
    std::size_t exchanges = 0;
    std::size_t undelivered = 0;
    bool row_order_ok = true;  ///< the per-row class-ordering invariant
    /// Full fingerprint at the certified step. The per-step
    /// destination-less fingerprints are recorded only by verify_replay.
    std::uint64_t final_fingerprint = 0;
    Workload constructed;
  };
  RunResult run_construction(const std::string& algorithm, int k);

  struct ReplayResult {
    RunResult construction;
    /// Farthest-first uses full destinations, so stepwise destination-less
    /// equality is NOT implied by Lemma 10; we still measure it.
    bool stepwise_match = true;
    bool final_match = true;
    Step first_mismatch = -1;
    std::size_t undelivered_at_certified = 0;
    Step replay_total_steps = 0;
    bool replay_all_delivered = false;
  };
  ReplayResult verify_replay(const std::string& algorithm, int k,
                             Step replay_budget = 0);

 private:
  /// The construction run behind run_construction and verify_replay. When
  /// `stepwise_nodest` is non-null, the destination-less fingerprint after
  /// every step is appended to it.
  RunResult construct(const std::string& algorithm, int k,
                      std::vector<std::uint64_t>* stepwise_nodest);

  Mesh mesh_;
  std::int32_t n_;
  int k_;
  std::int32_t cn_;
  std::int32_t dn_;
  std::int64_t p_;
  std::int64_t classes_;
  Step certified_;
};

}  // namespace mr
