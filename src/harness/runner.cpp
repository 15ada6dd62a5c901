#include "harness/runner.hpp"

#include <optional>

#include "check/adversary.hpp"
#include "routing/registry.hpp"
#include "telemetry/export.hpp"
#include "topo/registry.hpp"
#include "traffic/drain.hpp"

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
  const std::unique_ptr<Topology> topo =
      make_topology(spec.resolved_topology(), spec.width, spec.height);

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

  std::optional<TrafficPump> pump;
  std::vector<CheckpointPart> parts;
  if (open_loop) {
    MR_REQUIRE_MSG(spec.traffic_steps >= 1,
                   "open-loop run needs traffic_steps >= 1");
    pump.emplace(engine, *hooks.traffic, spec.traffic_steps,
                 spec.traffic_ahead);
    parts = {{"source", hooks.traffic}, {"pump", &*pump}};
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

  for (StepObserver* o : hooks.step_observers) engine.add_observer(o);

  Step budget = spec.max_steps > 0
                    ? spec.max_steps
                    : default_step_budget(spec.width, spec.height,
                                          spec.queue_capacity);
  if (pump && spec.max_steps == 0) budget += spec.traffic_steps;
  run_to_drain(engine, workload, pump ? &*pump : nullptr, budget,
               spec.checkpoint, parts);

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
  return result;
}

}  // namespace mr
