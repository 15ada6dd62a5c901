#include "lower_bound/construction.hpp"

#include <algorithm>

#include "routing/registry.hpp"
#include "sim/engine.hpp"

namespace mr {

namespace {

/// Construction and replay engines: queue size k, no stall limit (heavy
/// congestion is the whole point).
Engine::Config construction_config(int k) {
  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = 0;
  return config;
}

}  // namespace

ConstructionRun LowerBoundConstruction::drive(
    const std::string& algorithm, int k, const Workload& placement,
    StepInterceptor& exchanger, std::initializer_list<StepObserver*> observers,
    std::vector<std::uint64_t>* stepwise_nodest,
    const std::function<void(const Sim&)>& at_certified) const {
  auto algo = make_algorithm(algorithm);
  MR_REQUIRE_MSG(algo->minimal(), "construction applies to minimal routers");
  // The counting argument (Lemmas 3/4) uses the total per-node buffer
  // capacity: k for a central queue, 4k for the per-inlink layout. The
  // construction must be sized for at least the actual capacity.
  const int per_node_capacity =
      algo->queue_layout() == QueueLayout::PerInlink ? 4 * k : k;
  MR_REQUIRE_MSG(per_node_capacity <= k_model_,
                 "construction sized for total capacity "
                     << k_model_ << " but the router buffers "
                     << per_node_capacity << " per node");

  Engine engine(mesh_, construction_config(k), *algo);
  for (const Demand& d : placement)
    engine.add_packet(d.source, d.dest, d.injected_at);
  engine.set_interceptor(&exchanger);
  for (StepObserver* observer : observers)
    if (observer != nullptr) engine.add_observer(observer);
  engine.prepare();

  if (stepwise_nodest != nullptr)
    stepwise_nodest->reserve(static_cast<std::size_t>(certified_));
  for (Step t = 1; t <= certified_; ++t) {
    MR_REQUIRE_MSG(engine.step_once(),
                   "network drained before the certified bound at step " << t);
    if (stepwise_nodest != nullptr)
      stepwise_nodest->push_back(engine.fingerprint(false));
  }
  if (at_certified) at_certified(engine);

  ConstructionRun run;
  run.steps = certified_;
  run.exchanges = engine.exchange_count();
  run.undelivered = engine.num_packets() - engine.delivered_count();
  run.final_fingerprint = engine.fingerprint(true);
  run.constructed.reserve(engine.num_packets());
  for (const Packet& pk : engine.all_packets())
    run.constructed.push_back(Demand{pk.source, pk.dest, pk.injected_at});
  return run;
}

void LowerBoundConstruction::replay(
    const std::string& algorithm, int k, const ConstructionRun& run,
    const std::vector<std::uint64_t>& stepwise_nodest, Step budget,
    ReplayCheck& out) const {
  auto algo = make_algorithm(algorithm);
  Engine replay(mesh_, construction_config(k), *algo);
  for (const Demand& d : run.constructed)
    replay.add_packet(d.source, d.dest, d.injected_at);
  replay.prepare();

  // Lemma 12: at every step t the replay equals the construction up to the
  // not-yet-performed exchanges, which only permute destinations — so the
  // destination-less configurations must be identical...
  for (Step t = 1; t <= certified_; ++t) {
    MR_REQUIRE(replay.step_once());
    if (replay.fingerprint(false) !=
        stepwise_nodest[static_cast<std::size_t>(t - 1)]) {
      out.stepwise_match = false;
      if (out.first_mismatch < 0) out.first_mismatch = t;
    }
  }
  // ...and at the certified step no exchanges are pending, so the full
  // configurations coincide (Theorem 13), leaving an undelivered packet.
  out.final_match = replay.fingerprint(true) == run.final_fingerprint;
  out.undelivered_at_certified =
      replay.num_packets() - replay.delivered_count();

  if (budget <= 0)
    budget = certified_ + 16LL * n_ * n_ / std::max(1, k) + 64LL * n_;
  out.replay_total_steps = replay.run(budget);
  out.replay_all_delivered = replay.all_delivered();
}

}  // namespace mr
