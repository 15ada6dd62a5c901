// Run driver: executes one routing instance (mesh + workload + algorithm)
// and collects the result metrics used by tests and benchmarks.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {

class TrafficSource;

/// How a run's engine actually stepped. Several row bands can be requested
/// but not honoured: a run carrying an interceptor falls back to one band
/// (phase (b) runs on the coordinator over the whole step's moves),
/// reported as SequentialFallback. Sequential means one band on the
/// calling thread; the names predate the single step pipeline and are kept
/// because recorded scenario JSON carries them.
enum class EngineMode {
  Sequential,
  Sharded,
  SequentialFallback,
};

/// Canonical wire names ("sequential", "sharded", "sequential-fallback"),
/// used by the scenario JSON records and the fallback notice.
const char* to_string(EngineMode mode);
/// Inverse of to_string; nullopt for unknown names.
std::optional<EngineMode> parse_engine_mode(std::string_view name);

/// Opt-in run observability. With `series` or `profile` set the runner
/// attaches a TelemetryCollector / enables phase profiling itself — callers
/// never construct observers. Setting `export_dir` additionally writes the
/// meshroute-telemetry/1 JSONL + CSV artefacts there.
struct TelemetrySpec {
  bool series = false;   ///< collect time series + heatmaps
  bool profile = false;  ///< wall-clock the five step phases
  Step sample_every = 16;
  std::size_t series_capacity = 4096;
  std::string export_dir;  ///< empty = collect only, no files
  std::string slug;        ///< export file slug; empty = algorithm name

  bool enabled() const { return series || profile || !export_dir.empty(); }
};

struct RunSpec {
  std::int32_t width = 0;   ///< router columns
  std::int32_t height = 0;  ///< router rows
  /// Registry topology name ("mesh", "torus", "cmesh-4", ...; see
  /// src/topo/registry.hpp). Empty means "mesh". width/height always
  /// describe the router grid.
  std::string topology;
  int queue_capacity = 1;  ///< k
  std::string algorithm;   ///< registry name
  Step max_steps = 0;      ///< 0 = auto (generous bound from mesh size)
  Step stall_limit = kDefaultStallLimit;
  TelemetrySpec telemetry;

  /// Canonical topology selection: `topology` when set, else "mesh". The
  /// only resolution point; run_workload builds the network from this name
  /// alone.
  std::string resolved_topology() const {
    return topology.empty() ? "mesh" : topology;
  }

  /// Row bands and threads of the step pipeline (Engine::Config::shards /
  /// ::threads; DESIGN.md §9). Results are bit-identical for any
  /// combination. A run with an interceptor hook falls back to
  /// shards = 1 (phase (b) requires one band).
  int engine_shards = 1;
  int engine_threads = 1;

  /// Open-loop extension (used when RunHooks::traffic is set): the source
  /// injects for steps 1..traffic_steps through a TrafficPump with a
  /// traffic_ahead generation window, then the run drains. The engine runs
  /// with the open-loop stall policy so deadlocks trip the stall limit
  /// despite the pump's pending window.
  Step traffic_steps = 0;
  Step traffic_ahead = 32;

  /// Timed link/node fault schedule (sim/fault.hpp) installed on the
  /// engine before prepare()/restore(); empty = no faults. Validated
  /// against the resolved topology (set_fault_schedule throws on a
  /// schedule naming nodes or links the network does not have).
  FaultSchedule faults;

  /// Attach the online GreedyAdversary (check/adversary.hpp) as the run's
  /// interceptor. Forces one band like any interceptor;
  /// ignored when RunHooks::interceptor is already set (an explicit hook
  /// wins).
  bool adversary = false;

  /// Durable-run store (sim/snapshot.hpp). When enabled, run_workload
  /// snapshots the engine (and, for open-loop runs, the traffic source and
  /// pump) every `checkpoint.every` steps and once more at the end, through
  /// run_to_drain (traffic/drain.hpp). Started against a store holding a
  /// snapshot it restores and continues bit-identically; a finished run's
  /// snapshot steps nothing and yields the same result. Telemetry and the
  /// phase profile on a resumed run cover only the steps this call ran.
  CheckpointSpec checkpoint;
};

/// Optional extension points a scenario can attach to a run: an adversary
/// interceptor (§3 step (b) hook) and extra observers/checkers.
///
/// Ownership/const contract: every pointer is NON-OWNING and must outlive
/// the run_workload call. The hooks struct itself is read-only to the
/// runner (passed by const reference and never mutated), but the pointed-to
/// objects are live collaborators the engine calls back into — observers
/// accumulate, the interceptor exchanges, the traffic source advances — so
/// the pointees are deliberately non-const.
struct RunHooks {
  StepInterceptor* interceptor = nullptr;
  std::vector<StepObserver*> step_observers;
  /// Open-loop traffic source pumped on top of the (possibly empty) batch
  /// workload; see RunSpec::traffic_steps.
  TrafficSource* traffic = nullptr;
};

struct RunResult {
  Step steps = 0;              ///< last executed step
  bool all_delivered = false;
  bool stalled = false;
  std::size_t packets = 0;
  std::size_t delivered = 0;
  int max_queue = 0;           ///< peak single-queue occupancy
  std::int64_t total_moves = 0;
  LatencySummary latency;
  /// Filled when RunSpec::telemetry asked for profiling.
  std::optional<PhaseProfile> phase_profile;
  /// JSONL path when RunSpec::telemetry exported artefacts, else empty.
  std::string telemetry_path;
  /// How the engine actually stepped (see EngineMode).
  EngineMode engine_mode = EngineMode::Sequential;

  bool operator==(const RunResult&) const = default;
};

/// Runs the workload to completion (or to max_steps / stall), with
/// optional adversary/observer hooks attached to the engine.
RunResult run_workload(const RunSpec& spec, const Workload& workload,
                       const RunHooks& hooks = {});

/// Convenience: default max step budget for an n×m mesh with queue size k —
/// comfortably above the Theorem 15 upper bound.
Step default_step_budget(std::int32_t width, std::int32_t height, int k);

}  // namespace mr
