// Steady-state measurement protocol for open-loop traffic: warmup →
// measurement → drain, the standard interconnect-simulator methodology.
//
// The source injects for warmup_steps + measure_steps steps; statistics
// are attributed per phase. Offered load is what the source emitted,
// injected is what entered the network (a full source queue defers entry),
// accepted throughput is deliveries per node per step during the
// measurement phase, and the latency summary covers exactly the packets
// offered during the measurement phase (wherever they deliver). A
// windowed-latency stationarity check flags runs whose latency was still
// drifting — i.e. not yet in steady state — over the measurement phase.
#pragma once

#include <memory>
#include <string>

#include "sim/metrics.hpp"
#include "sim/snapshot.hpp"
#include "traffic/burst.hpp"
#include "traffic/pattern.hpp"
#include "traffic/source.hpp"

namespace mr {

struct SteadyStateSpec {
  std::int32_t width = 0;   ///< router columns
  std::int32_t height = 0;  ///< router rows
  /// Registry topology name ("mesh", "torus", "cmesh-4", ...). Empty means
  /// "mesh". Rates are per TERMINAL: on a concentrated topology
  /// offered/accepted_rate divide by num_terminals(), not routers.
  std::string topology;

  /// Canonical topology selection (see RunSpec::resolved_topology).
  std::string resolved_topology() const {
    return topology.empty() ? "mesh" : topology;
  }
  int queue_capacity = 1;  ///< k
  std::string algorithm;   ///< registry name
  TrafficSpec traffic;
  /// Burst process modulating the source (traffic/burst.hpp). The default
  /// (stationary "none") keeps the plain Bernoulli source; any other kind
  /// makes the offered load time-varying, which stationarity-assuming
  /// consumers (the saturation search) must reject.
  BurstSpec burst;

  Step warmup_steps = 256;
  Step measure_steps = 1024;
  /// Steps allowed past the injection phase to drain in-flight packets;
  /// 0 = auto (generous for sub-saturation loads, bounded so saturated
  /// runs finish). Exhausting it is reported as drained = false.
  Step drain_budget = 0;
  Step pump_ahead = 32;  ///< generation-ahead window of the pump
  /// Consecutive no-progress steps before the run is declared stalled.
  /// Applied with the open-loop stall policy (pending future injections
  /// do not defer the check), so it must exceed the longest plausible
  /// network-wide injection gap at the configured rate.
  Step stall_limit = 4096;

  int stationarity_windows = 4;          ///< measurement-phase split
  double stationarity_tolerance = 0.25;  ///< relative drift allowed

  /// Durable-run store (sim/snapshot.hpp): run_steady_state snapshots the
  /// engine + source + pump + phase accounting every `checkpoint.every`
  /// steps and once more at the end (run_to_drain, traffic/drain.hpp);
  /// against an existing store it resumes bit-identically, and a finished
  /// run's snapshot reproduces the result without stepping.
  CheckpointSpec checkpoint;
};

/// Per-phase accounting. offered counts source emissions dated inside the
/// phase; injected counts packets that entered the network (or delivered
/// at their source) during it; delivered counts deliveries during it.
struct TrafficPhaseStats {
  Step steps = 0;
  std::int64_t offered = 0;
  std::int64_t injected = 0;
  std::int64_t delivered = 0;

  bool operator==(const TrafficPhaseStats&) const = default;
};

struct SteadyStateResult {
  TrafficPhaseStats warmup, measure, drain;

  double offered_rate = 0;   ///< measure offered / (terminals * steps)
  double accepted_rate = 0;  ///< measure delivered / (terminals * steps)
  /// Latency quantiles of the packets offered during the measurement
  /// phase that were delivered by the end of the run.
  LatencySummary latency;
  std::size_t measured_packets = 0;  ///< measurement-phase offered
  std::size_t measured_delivered = 0;

  bool stationary = false;
  /// |second-half mean latency − first-half mean| / overall mean, over
  /// stationarity_windows injection-time windows of the measurement phase.
  double stationarity_drift = 0;

  bool drained = false;  ///< every offered packet delivered
  bool stalled = false;
  Step steps = 0;  ///< last executed step
  int max_queue = 0;
  std::int64_t total_moves = 0;
  std::int64_t total_offered = 0;
  std::int64_t total_delivered = 0;
  std::int64_t backlog_end = 0;  ///< undelivered packets at run end

  bool operator==(const SteadyStateResult&) const = default;
};

/// Builds the network a steady-state spec routes on: the registry
/// topology spec.resolved_topology() names.
std::unique_ptr<Topology> steady_state_topology(const SteadyStateSpec& spec);

/// Runs the protocol with a fresh source built from (spec.traffic,
/// spec.burst) through make_traffic_source — the plain BernoulliSource
/// when spec.burst is stationary.
SteadyStateResult run_steady_state(const SteadyStateSpec& spec);

/// Same, with a caller-provided source (e.g. a ReplaySource).
SteadyStateResult run_steady_state(const SteadyStateSpec& spec,
                                   TrafficSource& source);

}  // namespace mr
