// §5 "Dimension Order Routing": the Ω(n²/k) construction for
// destination-exchangeable dimension-order routers.
//
// Senders are the westernmost (1−c)n nodes of the cn southernmost rows;
// the N_i-column is the ((1−c)n−1+i)-th column and the i-box is everything
// west of (and including) it within the southernmost cn rows. There is a
// single exchange rule: an N_j-packet (j > i) scheduled to enter the
// N_i-column during steps 1..i·dn is exchanged with an N_i-packet in the
// (i−1)-box not scheduled to enter that column.
#pragma once

#include <string>
#include <vector>

#include "lower_bound/constants.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {

class DimOrderConstruction {
 public:
  DimOrderConstruction(const Mesh& mesh, const DimOrderLbParams& params);

  Step certified_steps() const { return certified_; }
  std::int64_t num_classes() const { return classes_; }

  /// 0-based column of the N_i-column.
  std::int32_t line(std::int64_t i) const {
    return static_cast<std::int32_t>(n_ - cn_ - 2 + i);
  }

  /// Class index of a packet, or 0 if unclassed (source must be a sender
  /// node; destination in an N_i-column at row ≥ cn).
  std::int64_t classify(Coord source, Coord dest) const;

  Workload placement() const;

  struct RunResult {
    Step steps = 0;
    std::size_t exchanges = 0;
    std::size_t undelivered = 0;
    /// Full fingerprint at the certified step. The per-step
    /// destination-less fingerprints are recorded only by verify_replay.
    std::uint64_t final_fingerprint = 0;
    Workload constructed;
  };
  RunResult run_construction(const std::string& algorithm, int k);

  struct ReplayResult {
    RunResult construction;
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
