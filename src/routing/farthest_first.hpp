// Dimension-order routing with the farthest-first outqueue policy
// (Leighton [16, p.159]; paper §5's second construction, and the base case
// of the §6 algorithm).
//
// The next packet advanced in a dimension is the one with the farthest to
// go in that dimension. This uses the full destination address, so the
// algorithm is NOT destination-exchangeable; §5 gives it a dedicated
// Ω(n²/k) construction.
#pragma once

#include "sim/algorithm.hpp"
#include "sim/engine.hpp"

namespace mr {

class FarthestFirstRouter final : public Algorithm {
 public:
  std::string name() const override { return "farthest-first"; }
  /// The outqueue ranks the queued packets by their own destinations.
  bool plan_out_reads_queue_only() const override { return true; }

  void plan_out(Sim& e, NodeId u, OutPlan& plan) override;
  void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
               InPlan& plan) override;
};

}  // namespace mr
