#include "traffic/drain.hpp"

#include <string>

namespace mr {

Step run_to_drain(Engine& engine, const Workload& workload, TrafficPump* pump,
                  Step max_steps, const CheckpointSpec& checkpoint,
                  std::span<const CheckpointPart> parts) {
  const bool durable = checkpoint.enabled();
  MR_REQUIRE_MSG(!durable || checkpoint.every >= 1,
                 "checkpoint interval must be >= 1");
  std::string bytes;
  Step saved_at = -1;  // step of the snapshot the store holds
  if (durable && read_text_file(checkpoint.snapshot_path(), &bytes)) {
    const EngineSnapshot snap = parse_snapshot(bytes);
    for (const CheckpointPart& part : parts) {
      const std::string* blob = snap.find_aux(part.key);
      if (blob == nullptr)
        throw SnapshotError(SnapshotError::Kind::Format,
                            checkpoint.snapshot_path() + " has no \"" +
                                part.key + "\" aux state");
      part.state->restore_state(*blob);
    }
    engine.restore(snap);
    saved_at = engine.step();
  } else {
    for (const Demand& d : workload)
      engine.add_packet(d.source, d.dest, d.injected_at);
    if (pump) pump->prime();
    engine.prepare();
  }

  const auto save = [&] {
    EngineSnapshot snap = engine.snapshot();
    for (const CheckpointPart& part : parts)
      snap.set_aux(part.key, part.state->save_state());
    write_snapshot_file(checkpoint.snapshot_path(), snap);
    saved_at = engine.step();
  };
  while (!engine.stalled() && engine.step() < max_steps) {
    if (pump) pump->advance();
    if (engine.all_delivered()) break;  // stream exhausted and drained
    engine.step_once();
    if (durable && engine.step() % checkpoint.every == 0) save();
  }
  if (durable && engine.step() != saved_at) save();
  return engine.step();
}

}  // namespace mr
