// E13's engine micro-benchmark core, shared between the
// e13_engine_throughput binary (google-benchmark + --json CLI) and the
// E13 scenario registration. Depends only on the simulator libraries so
// the scenario suite never links google-benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr::engine_bench {

inline constexpr const char* kSchema = "meshroute-bench-engine/1";
inline constexpr int kQueueCapacity = 2;

struct RunStats {
  std::string router;
  std::string layout;
  std::int32_t n = 0;
  std::int64_t steps = 0;
  std::int64_t moves = 0;
  double seconds = 0;
  double moves_per_sec = 0;
  std::size_t delivered = 0;
  std::size_t packets = 0;
  bool stalled = false;
  /// Engine mode for this row (DESIGN.md §9). shards/threads = 1 is one
  /// band on the calling thread; max_steps > 0 means the run was step-budgeted
  /// rather than drained (the n >= 1024 scaled rows).
  int shards = 1;
  int threads = 1;
  std::int64_t max_steps = 0;
};

/// Central-queue routers get monotone (deadlock-free) traffic so the
/// benchmark measures engine throughput, not deadlock spinning; the
/// per-inlink router takes the full permutation.
Workload workload_for(const Mesh& mesh, bool per_inlink);

/// One timed engine run of `name` on an n×n mesh.
RunStats run_once(const std::string& name, std::int32_t n);

/// Same with an explicit engine mode and step budget (0 = the default
/// drain budget). Sharded runs produce bit-identical routing results;
/// only the wall clock changes.
RunStats run_once(const std::string& name, std::int32_t n, int shards,
                  int threads, std::int64_t max_steps);

/// Writes the BENCH_engine.json record (schema kSchema).
bool write_json(const std::string& path, const std::vector<RunStats>& all,
                bool smoke);

/// Validates the BENCH_engine.json schema; prints the first problem found.
bool validate_json(const std::string& path);

/// The fixed sweep: every router × sizes (tiny when `smoke`), best of reps,
/// printed per row. Writes and validates `path`. Returns a process exit
/// code.
int json_sweep(const std::string& path, bool smoke);

/// Throughput regression guard: re-runs every (router, n) present in the
/// baseline BENCH_engine.json at `baseline_path` (written on the same
/// machine) and fails if any falls below (1 - tol) x the baseline
/// moves_per_sec. tol is 0.25 unless MESHROUTE_GUARD_TOL overrides it.
/// Returns a process exit code.
int throughput_guard(const std::string& baseline_path);

}  // namespace mr::engine_bench
