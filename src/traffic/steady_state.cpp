#include "traffic/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "core/assert.hpp"
#include "core/stats.hpp"
#include "routing/registry.hpp"
#include "topo/registry.hpp"
#include "traffic/drain.hpp"

namespace mr {
namespace {

/// Routes each step digest's injection/delivery counters into the phase
/// the step belongs to. Prepare-time events (step 0) count as warmup.
/// Its checkpoint blob ("acct/1") holds the six streamed counters; steps
/// and offered are recomputed at run end from the engine and pump.
class PhaseAccountant final : public StepObserver, public Snapshottable {
 public:
  PhaseAccountant(Step warmup_end, Step measure_end, TrafficPhaseStats& warmup,
                  TrafficPhaseStats& measure, TrafficPhaseStats& drain)
      : warmup_end_(warmup_end),
        measure_end_(measure_end),
        warmup_(warmup),
        measure_(measure),
        drain_(drain) {}

  void on_prepare(const Sim& e, const StepDigest& d) override {
    (void)e;
    warmup_.injected += d.injections;
    warmup_.delivered += d.deliveries;
  }
  void on_step(const Sim& e, const StepDigest& d) override {
    (void)e;
    TrafficPhaseStats& phase = d.step <= warmup_end_    ? warmup_
                               : d.step <= measure_end_ ? measure_
                                                        : drain_;
    phase.injected += d.injections;
    phase.delivered += d.deliveries;
  }

  std::string save_state() const override {
    std::string out = "acct/1";
    for (const TrafficPhaseStats* p : {&warmup_, &measure_, &drain_})
      out += " " + std::to_string(p->injected) + " " +
             std::to_string(p->delivered);
    return out;
  }
  void restore_state(const std::string& blob) override {
    std::istringstream in(blob);
    std::string tag;
    std::int64_t v[6];
    if (!(in >> tag >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5]) ||
        tag != "acct/1")
      throw SnapshotError(SnapshotError::Kind::Format,
                          "steady-state checkpoint: bad acct/1 blob");
    warmup_.injected = v[0];
    warmup_.delivered = v[1];
    measure_.injected = v[2];
    measure_.delivered = v[3];
    drain_.injected = v[4];
    drain_.delivered = v[5];
  }

 private:
  Step warmup_end_;
  Step measure_end_;
  TrafficPhaseStats& warmup_;
  TrafficPhaseStats& measure_;
  TrafficPhaseStats& drain_;
};

}  // namespace

std::unique_ptr<Topology> steady_state_topology(const SteadyStateSpec& spec) {
  return make_topology(spec.resolved_topology(), spec.width, spec.height);
}

SteadyStateResult run_steady_state(const SteadyStateSpec& spec,
                                   TrafficSource& source) {
  MR_REQUIRE_MSG(spec.width >= 1 && spec.height >= 1,
                 "mesh dimensions must be >= 1");
  MR_REQUIRE_MSG(spec.warmup_steps >= 0, "warmup_steps must be >= 0");
  MR_REQUIRE_MSG(spec.measure_steps >= 1, "measure_steps must be >= 1");
  MR_REQUIRE_MSG(spec.stationarity_windows >= 2,
                 "stationarity needs >= 2 windows");

  const std::unique_ptr<Topology> topo = steady_state_topology(spec);
  const auto nodes = static_cast<std::int64_t>(topo->num_terminals());
  std::unique_ptr<Algorithm> algorithm = make_algorithm(spec.algorithm);

  Engine::Config config;
  config.queue_capacity = spec.queue_capacity;
  config.stall_limit = spec.stall_limit;
  config.stall_counts_pending_injections = true;
  Engine engine(*topo, config, *algorithm);

  const Step warmup_end = spec.warmup_steps;
  const Step inject_end = spec.warmup_steps + spec.measure_steps;
  Step drain_budget = spec.drain_budget;
  if (drain_budget == 0) {
    // Generous for sub-saturation loads (a backlog of a few packets per
    // node plus the mesh diameter), bounded so saturated runs terminate.
    drain_budget = std::max<Step>(1024, 4 * nodes) +
                   4 * static_cast<Step>(spec.width + spec.height);
  }
  const Step max_steps = inject_end + drain_budget;

  SteadyStateResult r;
  PhaseAccountant accountant(warmup_end, inject_end, r.warmup, r.measure,
                             r.drain);
  engine.add_observer(static_cast<StepObserver*>(&accountant));

  TrafficPump pump(engine, source, inject_end, spec.pump_ahead);
  const CheckpointPart parts[] = {
      {"source", &source}, {"pump", &pump}, {"acct", &accountant}};
  const Step last =
      run_to_drain(engine, {}, &pump, max_steps, spec.checkpoint, parts);

  r.steps = last;
  r.stalled = engine.stalled();
  r.drained = engine.all_delivered() && pump.exhausted();
  r.max_queue = engine.max_occupancy_seen();
  r.total_moves = engine.total_moves();
  r.total_offered = pump.offered();
  r.total_delivered = static_cast<std::int64_t>(engine.delivered_count());
  r.backlog_end = static_cast<std::int64_t>(engine.num_packets()) -
                  r.total_delivered;

  r.warmup.steps = std::min(last, warmup_end);
  r.measure.steps = std::clamp<Step>(last - warmup_end, 0, spec.measure_steps);
  r.drain.steps = std::max<Step>(last - inject_end, 0);
  r.warmup.offered = pump.offered_between(1, warmup_end);
  r.measure.offered = pump.offered_between(warmup_end + 1, inject_end);
  r.drain.offered = 0;  // the source never injects past inject_end

  if (r.measure.steps > 0) {
    const double denom =
        static_cast<double>(nodes) * static_cast<double>(r.measure.steps);
    r.offered_rate = static_cast<double>(r.measure.offered) / denom;
    r.accepted_rate = static_cast<double>(r.measure.delivered) / denom;
  }

  // Latency and stationarity over the packets offered during the
  // measurement phase. Windows partition the phase by injection step, so
  // a still-filling network shows up as later windows with higher means.
  Histogram latency;
  const int windows = spec.stationarity_windows;
  const Step window_width =
      std::max<Step>(1, (spec.measure_steps + windows - 1) / windows);
  std::vector<RunningStat> window_latency(static_cast<std::size_t>(windows));
  for (const Packet& p : engine.all_packets()) {
    if (p.injected_at <= warmup_end || p.injected_at > inject_end) continue;
    ++r.measured_packets;
    if (!p.delivered()) continue;
    ++r.measured_delivered;
    const auto lat = static_cast<std::int64_t>(p.delivered_at - p.injected_at);
    latency.add(lat);
    const auto w = static_cast<std::size_t>(
        std::min<Step>((p.injected_at - warmup_end - 1) / window_width,
                       windows - 1));
    window_latency[w].add(static_cast<double>(lat));
  }
  r.latency = latency_summary(latency);

  const bool measure_complete = r.measure.steps == spec.measure_steps;
  bool windows_populated = true;
  for (const RunningStat& w : window_latency)
    if (w.count() == 0) windows_populated = false;
  if (measure_complete && windows_populated && latency.total() > 0) {
    const int half = windows / 2;
    double first = 0, second = 0;
    std::int64_t first_n = 0, second_n = 0;
    for (int i = 0; i < half; ++i) {
      first += window_latency[static_cast<std::size_t>(i)].sum();
      first_n += window_latency[static_cast<std::size_t>(i)].count();
    }
    for (int i = windows - half; i < windows; ++i) {
      second += window_latency[static_cast<std::size_t>(i)].sum();
      second_n += window_latency[static_cast<std::size_t>(i)].count();
    }
    const double mean_first = first / static_cast<double>(first_n);
    const double mean_second = second / static_cast<double>(second_n);
    const double overall = latency.mean();
    r.stationarity_drift =
        overall > 0 ? std::abs(mean_second - mean_first) / overall : 0;
    r.stationary = r.stationarity_drift <= spec.stationarity_tolerance;
  }
  return r;
}

SteadyStateResult run_steady_state(const SteadyStateSpec& spec) {
  const std::unique_ptr<Topology> topo = steady_state_topology(spec);
  const std::unique_ptr<TrafficSource> source =
      make_traffic_source(*topo, spec.traffic, spec.burst);
  return run_steady_state(spec, *source);
}

}  // namespace mr
