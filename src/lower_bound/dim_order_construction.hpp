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
#include "lower_bound/construction.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {

class DimOrderConstruction : public LowerBoundConstruction {
 public:
  DimOrderConstruction(const Mesh& mesh, const DimOrderLbParams& params);

  /// 0-based column of the N_i-column.
  std::int32_t line(std::int64_t i) const {
    return static_cast<std::int32_t>(n_ - cn_ - 2 + i);
  }

  /// Class index of a packet, or 0 if unclassed (source must be a sender
  /// node; destination in an N_i-column at row ≥ cn).
  std::int64_t classify(Coord source, Coord dest) const;

  Workload placement() const;

  using RunResult = ConstructionRun;
  RunResult run_construction(const std::string& algorithm, int k) const {
    return construct(algorithm, k, nullptr);
  }

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
