// The Ω(n²/k²) lower-bound construction (paper §3–§4), with the torus and
// h-h extensions of §5.
//
// Given any destination-exchangeable minimal adaptive algorithm, the
// construction
//   1. places p N_i- and p E_i-packets per class i = 1..⌊l⌋ in the cn×cn
//      corner submesh (initial-arrangement constraints of §3 step 1),
//   2. runs the real algorithm for ⌊l⌋·dn steps, applying exchange rules
//      EX1–EX4 between the outqueue-scheduling and inqueue phases,
//   3. extracts the constructed permutation (sources with post-exchange
//      destinations),
//   4. (verification) replays the constructed permutation through the
//      untouched algorithm and checks Lemma 12: the replay's configuration
//      equals the construction's at every step, up to the not-yet-performed
//      destination exchanges — and hence (Theorem 13) an undelivered packet
//      remains after ⌊l⌋·dn steps.
//
// While running, the construction checks Lemmas 1–8 online and throws
// InvariantViolation on any breach.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lower_bound/classes.hpp"
#include "lower_bound/constants.hpp"
#include "lower_bound/construction.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {

struct MainConstructionOptions {
  /// Add filler packets turning the instance into a full permutation
  /// (§3 step 2). Only for h = 1 on a mesh exactly the construction size.
  bool full_permutation = false;
  /// Shuffle the 0-box arrangement with this seed (0 = canonical order);
  /// any arrangement satisfying the §3 constraints must yield the bound.
  std::uint64_t placement_seed = 0;
};

class MainConstruction : public LowerBoundConstruction {
 public:
  /// Main construction (§3/§4) on `mesh`, which may be larger than
  /// params.n (torus embedding, §5): the construction occupies columns and
  /// rows [0, params.n).
  MainConstruction(const Mesh& mesh, const MainLbParams& params,
                   MainConstructionOptions options = {});

  /// h-h variant (§5).
  MainConstruction(const Mesh& mesh, const HhLbParams& params,
                   MainConstructionOptions options = {});

  const MainGeometry& geometry() const { return geometry_; }
  std::int64_t packets_per_class() const { return p_; }
  int h() const { return h_; }

  /// The §3 step-1 initial arrangement (plus step-2 fillers if requested).
  Workload placement() const;

  /// Steps = ⌊l⌋·dn; undelivered must be > 0 (Corollary 9).
  struct RunResult : ConstructionRun {
    /// Class-⌊l⌋ packets still inside the ⌊l⌋-box at the end — Corollary 9
    /// guarantees ≥ 2(p − dn) of them.
    std::int64_t last_class_in_box = 0;
    std::int64_t max_escapes_per_step = 0;  ///< Lemma 2 says ≤ 1 per type
  };

  /// Runs the construction against the named algorithm with queue size k.
  /// extra_observer (optional) is attached to the engine for the whole run.
  RunResult run_construction(const std::string& algorithm, int k,
                             StepObserver* extra_observer = nullptr) const;

  using ReplayResult = ConstructionReplay<RunResult>;

  /// Full Theorem 13 verification: construction, extraction, lock-step
  /// replay comparison, then runs the replay to completion.
  /// replay_budget = 0 uses a generous default.
  ReplayResult verify_replay(const std::string& algorithm, int k,
                             Step replay_budget = 0) const;

 private:
  template <typename Params>
  MainConstruction(const Mesh& mesh, const Params& params, int h,
                   MainConstructionOptions options);

  /// The construction run behind run_construction and verify_replay; see
  /// LowerBoundConstruction::drive for `stepwise_nodest`.
  RunResult construct(const std::string& algorithm, int k,
                      StepObserver* extra_observer,
                      std::vector<std::uint64_t>* stepwise_nodest) const;

  /// Corollary 9 census: class-⌊l⌋ packets still confined to the ⌊l⌋-box
  /// (packets awaiting injection count at their source).
  std::int64_t last_class_in_box(const Sim& e) const;

  int h_;
  MainConstructionOptions options_;
  MainGeometry geometry_;
};

}  // namespace mr
