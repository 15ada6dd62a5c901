// The recipe shared by the lower-bound constructions (paper §3–§5).
//
// Every construction runs the real router on its placement with an
// exchange rule between phases (a) and (c), stops at its certified step
// count, and extracts the constructed permutation (the sources with their
// post-exchange destinations). Verification then replays that permutation
// through the untouched router and checks Lemma 12 (the destination-less
// configurations agree at every step) and Theorem 13 (the full
// configurations agree at the certified step, which leaves a packet
// undelivered). LowerBoundConstruction holds that recipe once: a
// construction supplies only its placement, its exchange rule (an
// ExchangeInterceptor) and its online checkers.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/assert.hpp"
#include "sim/algorithm.hpp"
#include "sim/sim.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {

/// Fields every construction run reports.
struct ConstructionRun {
  Step steps = 0;               ///< the certified step count, all executed
  std::size_t exchanges = 0;    ///< destination exchanges performed
  std::size_t undelivered = 0;  ///< packets left at the certified step
  /// Full fingerprint at the certified step. The per-step destination-less
  /// fingerprints are recorded only when a replay compares against them.
  std::uint64_t final_fingerprint = 0;
  Workload constructed;  ///< the constructed permutation (§3 step 4)
};

/// Fields every replay verification reports.
struct ReplayCheck {
  bool stepwise_match = true;  ///< dest-less configs equal at every step
  bool final_match = true;     ///< full configs equal at the certified step
  Step first_mismatch = -1;
  std::size_t undelivered_at_certified = 0;  ///< Theorem 13: ≥ 1
  Step replay_total_steps = 0;  ///< steps until the replay fully drains
  bool replay_all_delivered = false;
};

/// A replay verification together with the construction run it replayed.
template <typename Run>
struct ConstructionReplay : ReplayCheck {
  Run construction;
};

/// Phase-(b) exchange loop shared by the constructions. `Rule` (CRTP)
/// supplies `PacketId partner_for(const Sim&, const ScheduledMove&)`: the
/// packet whose destination the move's packet must take, or kInvalidPacket
/// when the move breaks no rule. The loop sweeps the scheduled moves until no
/// rule fires: an exchange can re-expose a violation on an already-scanned
/// move (the partner's own scheduled move changes class), but never
/// creates one at a previously clean move. Exchanges are counted by the
/// Sim (Sim::exchange_count).
template <typename Rule>
class ExchangeInterceptor : public StepInterceptor {
 public:
  /// Every exchange window has closed after step `last_step`.
  explicit ExchangeInterceptor(Step last_step) : last_step_(last_step) {}

  void after_schedule(Sim& e, std::span<const ScheduledMove> moves) final {
    if (e.step() > last_step_) return;
    scheduled_target_.assign(e.num_packets(), kInvalidNode);
    for (const ScheduledMove& m : moves) scheduled_target_[m.packet] = m.to;

    bool changed = true;
    std::size_t rounds = 0;
    while (changed) {
      changed = false;
      MR_REQUIRE_MSG(++rounds <= moves.size() + 4,
                     "exchange fix-point failed to converge");
      for (const ScheduledMove& m : moves) {
        const PacketId partner =
            static_cast<const Rule&>(*this).partner_for(e, m);
        if (partner == kInvalidPacket) continue;
        e.exchange_destinations(m.packet, partner);
        changed = true;
      }
    }
  }

 protected:
  /// The node packet p is scheduled to enter this step, or kInvalidNode.
  NodeId scheduled_target(PacketId p) const { return scheduled_target_[p]; }

 private:
  Step last_step_;
  std::vector<NodeId> scheduled_target_;
};

/// Sizes and the driver shared by the three constructions.
class LowerBoundConstruction {
 public:
  Step certified_steps() const { return certified_; }
  std::int64_t num_classes() const { return classes_; }
  std::int32_t cn() const { return cn_; }  ///< side of the sender region
  std::int32_t dn() const { return dn_; }  ///< steps per class window

 protected:
  /// `par` is one of the *LbParams of constants.hpp. The construction
  /// occupies columns and rows [0, par.n) of `mesh`, which may be larger.
  template <typename Params>
  LowerBoundConstruction(const Mesh& mesh, const Params& par)
      : mesh_(mesh),
        n_(par.n),
        k_model_(par.k),
        cn_(par.cn),
        dn_(par.dn),
        p_(par.p),
        classes_(par.classes),
        certified_(par.certified_steps) {
    MR_REQUIRE_MSG(par.valid, "lower-bound params invalid for n="
                                  << par.n << " k=" << par.k);
    MR_REQUIRE(mesh_.width() >= n_ && mesh_.height() >= n_);
  }

  /// Runs the construction against `algorithm` with queue size k. The
  /// router must be minimal and its per-node buffer (k, or 4k per-inlink)
  /// must fit k_model_. Places `placement`, installs `exchanger`, attaches
  /// the non-null `observers` in order, then steps to the certified bound,
  /// throwing if the network drains first. When `stepwise_nodest` is
  /// non-null the destination-less fingerprint after every step is
  /// appended to it (a whole-mesh hash per step, paid only for a replay).
  /// `at_certified`, if set, sees the engine once after the last step.
  ConstructionRun drive(
      const std::string& algorithm, int k, const Workload& placement,
      StepInterceptor& exchanger,
      std::initializer_list<StepObserver*> observers,
      std::vector<std::uint64_t>* stepwise_nodest,
      const std::function<void(const Sim&)>& at_certified = {}) const;

  /// Replays run.constructed through the untouched `algorithm`, compares
  /// it with `stepwise_nodest` at every step and with run's final
  /// fingerprint at the certified step, then drains it for `budget` steps
  /// (0 = certified + 16n²/k + 64n). Fills `out`.
  void replay(const std::string& algorithm, int k, const ConstructionRun& run,
              const std::vector<std::uint64_t>& stepwise_nodest, Step budget,
              ReplayCheck& out) const;

  Mesh mesh_;
  std::int32_t n_;  ///< construction side length (the paper's n)
  int k_model_;     ///< the total per-node buffer the sizes assume
  std::int32_t cn_;
  std::int32_t dn_;
  std::int64_t p_;
  std::int64_t classes_;
  Step certified_;
};

}  // namespace mr
