// The one stepping loop of every engine run the harness drives: batch
// (run_workload), open-loop (run_workload with a traffic source) and
// steady-state (run_steady_state), durable or not.
//
// A durable run keeps one record, its <key>.ckpt snapshot (CheckpointSpec
// in sim/snapshot.hpp): written every `every` steps and once more when the
// run ends. Started against a store that holds one, the loop restores it
// and continues; a finished run's snapshot restores to a run with nothing
// left to step, so the caller computes its result exactly as an
// uninterrupted run would.
#pragma once

#include <span>

#include "sim/engine.hpp"
#include "sim/snapshot.hpp"
#include "traffic/pump.hpp"
#include "workload/permutation.hpp"

namespace mr {

/// A component checkpointed beside the engine: its save_state() blob rides
/// in the snapshot's aux map under `key` ("source", "pump", "acct").
struct CheckpointPart {
  const char* key;
  Snapshottable* state;
};

/// Starts the run, then alternates pump->advance() (when `pump` is set)
/// and engine.step_once() until every packet is delivered (and the stream
/// is exhausted), the engine stalls, or step `max_steps` has run.
///
/// Start: when `checkpoint` is enabled and its snapshot file exists, every
/// part is restored from its aux blob and then the engine from the
/// snapshot (SnapshotError when the file is corrupt, does not match the
/// engine, or lacks a part's blob). Otherwise `workload` is added, the
/// pump primed and the engine prepared. Observers, interceptor and fault
/// schedule must already be attached. An open-loop engine should run with
/// Config::stall_counts_pending_injections so a deadlock trips the stall
/// limit despite the pump's pending window. Returns the last executed
/// step.
Step run_to_drain(Engine& engine, const Workload& workload, TrafficPump* pump,
                  Step max_steps, const CheckpointSpec& checkpoint = {},
                  std::span<const CheckpointPart> parts = {});

}  // namespace mr
