#include "harness/runner.hpp"

#include <optional>

#include "check/adversary.hpp"
#include "harness/checkpoint.hpp"
#include "routing/registry.hpp"
#include "telemetry/export.hpp"
#include "topo/registry.hpp"
#include "traffic/pump.hpp"

namespace mr {

const char* to_string(EngineMode mode) {
  switch (mode) {
    case EngineMode::Sequential: return "sequential";
    case EngineMode::Sharded: return "sharded";
    case EngineMode::SequentialFallback: return "sequential-fallback";
  }
  return "?";
}

std::optional<EngineMode> parse_engine_mode(std::string_view name) {
  if (name == "sequential") return EngineMode::Sequential;
  if (name == "sharded") return EngineMode::Sharded;
  if (name == "sequential-fallback") return EngineMode::SequentialFallback;
  return std::nullopt;
}

Step default_step_budget(std::int32_t width, std::int32_t height, int k) {
  const std::int64_t n = std::max(width, height);
  // Theorem 15 upper bound is O(n²/k + n); §6 runs in ≤ 972n. A budget of
  // 8·n²/k + 4000·n covers every algorithm in the suite with slack.
  return 8 * n * n / std::max(1, k) + 4000 * n;
}

RunResult run_workload(const RunSpec& spec, const Workload& workload,
                       const RunHooks& hooks) {
  const CheckpointSpec& ckpt = spec.checkpoint;
  if (ckpt.enabled()) {
    // A finished run short-circuits to its durable record; a corrupt record
    // is store damage and must fail loudly, not silently re-run.
    std::string done;
    if (read_text_file(ckpt.done_path(), &done)) {
      RunResult recorded;
      std::string error;
      if (!run_result_from_json(done, &recorded, &error))
        throw SnapshotError(SnapshotError::Kind::Format,
                            ckpt.done_path() + ": " + error);
      return recorded;
    }
  }

  // The single topology resolution point: the legacy RunSpec::torus flag
  // has already been normalised into a registry name.
  TopoSpec ts = parse_topology_spec(spec.resolved_topology());
  ts.width = spec.width;
  ts.height = spec.height;
  const std::unique_ptr<Topology> topo = make_topology(ts);

  const bool open_loop = hooks.traffic != nullptr;
  // The spec-level adversary flag materialises a GreedyAdversary unless
  // the caller attached its own interceptor (an explicit hook wins).
  std::optional<GreedyAdversary> greedy;
  StepInterceptor* interceptor = hooks.interceptor;
  if (interceptor == nullptr && spec.adversary) {
    greedy.emplace();
    interceptor = &*greedy;
  }
  Engine::Config config;
  config.queue_capacity = spec.queue_capacity;
  config.stall_limit = spec.stall_limit;
  config.stall_counts_pending_injections = open_loop;
  // Phase (b) requires one band, so an interceptor run falls back to
  // shards = 1 (results are identical either way; only wall-clock
  // differs). The fallback is surfaced through RunResult::engine_mode
  // rather than silently dropped.
  const bool wanted_sharded = spec.engine_shards > 1 || spec.engine_threads > 1;
  const bool fallback = interceptor != nullptr && wanted_sharded;
  config.shards = interceptor != nullptr ? 1 : spec.engine_shards;
  config.threads = interceptor != nullptr ? 1 : spec.engine_threads;
  Engine engine(*topo, config,
                [&] { return make_algorithm(spec.algorithm); });

  std::optional<EngineSnapshot> resume;
  if (ckpt.enabled()) {
    std::string bytes;
    if (read_text_file(ckpt.snapshot_path(), &bytes))
      resume = parse_snapshot(bytes);
  }

  if (!resume)
    for (const Demand& d : workload)
      engine.add_packet(d.source, d.dest, d.injected_at);

  std::optional<TrafficPump> pump;
  if (open_loop) {
    MR_REQUIRE_MSG(spec.traffic_steps >= 1,
                   "open-loop run needs traffic_steps >= 1");
    pump.emplace(engine, *hooks.traffic, spec.traffic_steps,
                 spec.traffic_ahead);
  }

  if (!spec.faults.empty()) engine.set_fault_schedule(spec.faults);
  if (interceptor != nullptr) engine.set_interceptor(interceptor);

  const TelemetrySpec& telemetry = spec.telemetry;
  std::optional<TelemetryCollector> collector;
  if (telemetry.series || !telemetry.export_dir.empty()) {
    TelemetryOptions options;
    options.series_capacity = telemetry.series_capacity;
    options.sample_every = telemetry.sample_every;
    collector.emplace(options);
    engine.add_observer(&*collector);
  }
  if (telemetry.profile) engine.set_phase_profiling(true);

  for (Observer* o : hooks.observers) engine.add_observer(o);
  for (StepObserver* o : hooks.step_observers) engine.add_observer(o);

  if (resume) {
    // The engine snapshot carries the whole workload (pre-scheduled and
    // pumped packets alike); restore instead of add_packet/prime/prepare.
    if (open_loop) {
      const std::string* source_blob = resume->find_aux("source");
      const std::string* pump_blob = resume->find_aux("pump");
      if (!source_blob || !pump_blob)
        throw SnapshotError(SnapshotError::Kind::Format,
                            "snapshot of an open-loop run is missing the "
                            "source/pump aux state");
      hooks.traffic->restore_state(*source_blob);
      pump->restore_state(*pump_blob);
    }
    engine.restore(*resume);
  } else {
    if (pump) pump->prime();
    engine.prepare();
  }

  Step budget = spec.max_steps > 0
                    ? spec.max_steps
                    : default_step_budget(spec.width, spec.height,
                                          spec.queue_capacity);
  if (pump && spec.max_steps == 0) budget += spec.traffic_steps;

  const auto maybe_checkpoint = [&] {
    if (!ckpt.enabled() || engine.step() % ckpt.every != 0) return;
    EngineSnapshot snap = engine.snapshot();
    if (open_loop) {
      snap.set_aux("source", hooks.traffic->save_state());
      snap.set_aux("pump", pump->save_state());
    }
    write_snapshot_file(ckpt.snapshot_path(), snap);
  };

  // The stepping loops mirror Engine::run / run_to_drain exactly, with a
  // snapshot dropped every ckpt.every steps.
  if (pump) {
    while (!engine.stalled() && engine.step() < budget) {
      pump->advance();
      if (engine.all_delivered()) break;  // stream exhausted and drained
      if (!engine.step_once()) break;
      maybe_checkpoint();
    }
  } else {
    while (!engine.all_delivered() && !engine.stalled() &&
           engine.step() < budget) {
      if (!engine.step_once()) break;
      maybe_checkpoint();
    }
  }

  RunResult result;
  result.steps = engine.step();
  result.all_delivered = engine.all_delivered();
  result.stalled = engine.stalled();
  result.packets = engine.num_packets();
  result.delivered = engine.delivered_count();
  result.max_queue = engine.max_occupancy_seen();
  result.total_moves = engine.total_moves();
  // From the final packet records, not a streamed observer, so a resumed
  // run reproduces the uninterrupted run's summary exactly.
  result.latency = latency_summary_from_packets(engine.all_packets());
  result.engine_mode = engine.shard_count() > 1 ? EngineMode::Sharded
                       : fallback               ? EngineMode::SequentialFallback
                                                : EngineMode::Sequential;
  if (telemetry.profile) result.phase_profile = engine.phase_profile();

  if (collector && !telemetry.export_dir.empty()) {
    TelemetryRunInfo info;
    info.run = telemetry.slug.empty() ? spec.algorithm : telemetry.slug;
    info.algorithm = spec.algorithm;
    info.width = spec.width;
    info.height = spec.height;
    info.torus = topo->is_torus();
    info.queue_capacity = spec.queue_capacity;
    info.layout = engine.queue_layout();
    info.steps = result.steps;
    info.packets = result.packets;
    info.delivered = result.delivered;
    info.stalled = result.stalled;
    result.telemetry_path = write_telemetry(
        *collector, info,
        result.phase_profile ? &*result.phase_profile : nullptr,
        telemetry.export_dir);
  }

  if (ckpt.enabled())
    write_text_file_atomic(ckpt.done_path(), run_result_to_json(result));
  return result;
}

}  // namespace mr
