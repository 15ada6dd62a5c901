// Versioned engine checkpoints: the meshroute-snapshot/1 format.
//
// A snapshot captures everything Engine needs to continue a run
// bit-identically from a step boundary: the full packet records (the
// NodeQueues SoA slab is rebuilt from the per-packet location/slot
// fields), per-node algorithm state, the pending/future-dated injection
// buffer, and the step/stall/metric counters. Derived structures (queue
// slabs, occupancy counters, active lists, cached profitable masks) are
// reconstructed on restore, so the serialized form stays minimal and
// canonical.
//
// Wire format (kSnapshotMagic = "meshroute-snapshot/1"):
//   line 1:  the magic string
//   line 2:  one JSON object — identity header (topology, dimensions,
//            algorithm, k, layout, shards, step, element counts), the
//            payload byte count + FNV-1a checksum, and an "aux" object of
//            opaque string blobs for co-checkpointed components (traffic
//            source RNG, pump window, phase accounting)
//   rest:    little-endian binary payload (packets, node states,
//            injections, counters)
// The writer takes one pass into one buffer: the payload size follows
// from the element counts, so the header goes first with a placeholder
// checksum, the string is resized once, the fields are stored in place
// and the checksum digits are patched last.
// Strict validation: a corrupt or truncated file raises
// SnapshotError{Format}, an identity mismatch against the restoring
// engine raises SnapshotError{Mismatch} naming the field.
//
// Files are written atomically (tmp + rename), so a SIGKILL mid-write
// never leaves a torn checkpoint behind — the previous one survives.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/packet.hpp"

namespace mr {

inline constexpr const char* kSnapshotMagic = "meshroute-snapshot/1";

/// Typed snapshot failure. Io: the file cannot be read/written. Format:
/// the bytes are not a well-formed meshroute-snapshot/1 (bad magic,
/// malformed header, truncated or checksum-failing payload). Mismatch:
/// well-formed, but describes a different run configuration than the
/// engine it is being restored into (topology/dimensions/algorithm/k/
/// layout/shards).
class SnapshotError : public std::runtime_error {
 public:
  enum class Kind { Io, Format, Mismatch };

  SnapshotError(Kind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Run identity stamped into every snapshot; Engine::restore validates all
/// of it against the target engine before touching any state.
struct SnapshotMeta {
  std::string topology;  ///< Topology::name(), e.g. "mesh", "torus", "cmesh-4"
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::string algorithm;  ///< Algorithm::name()
  int queue_capacity = 1;
  QueueLayout layout = QueueLayout::Central;
  int shards = 1;  ///< Engine::shard_count() (post-clamp)
  Step step = 0;   ///< step the snapshot was taken at
};

/// In-memory form of one checkpoint. Engine::snapshot() fills the engine
/// state; callers may attach auxiliary blobs (Snapshottable components)
/// before serializing. The aux entries ride in the JSON header and are
/// opaque to the engine.
struct EngineSnapshot {
  SnapshotMeta meta;

  /// Every packet record, delivered ones included, indexed by PacketId.
  /// Packet::profitable is derived state and is recomputed on restore.
  std::vector<Packet> packets;
  std::vector<std::uint64_t> node_state;

  /// Injection buffer: (step, packet) ascending, with the consumed prefix.
  std::vector<std::pair<Step, PacketId>> injections;
  std::uint64_t injection_cursor = 0;
  /// Packets due at or before meta.step whose source queue was full (or
  /// whose source was down), strictly ascending by id; restore() rejects
  /// any other order.
  std::vector<PacketId> waiting_injections;

  std::uint64_t delivered_count = 0;
  bool stalled = false;
  std::uint64_t exchange_count = 0;
  int max_occupancy_seen = 0;
  std::int64_t total_moves = 0;
  Step stall_run = 0;

  /// Opaque co-checkpointed component state (key -> blob), e.g.
  /// "source" (BernoulliSource RNG + window), "pump" (TrafficPump
  /// counters). Carried verbatim in the header.
  std::vector<std::pair<std::string, std::string>> aux;

  const std::string* find_aux(const std::string& key) const {
    for (const auto& [k, v] : aux)
      if (k == key) return &v;
    return nullptr;
  }
  void set_aux(const std::string& key, std::string value) {
    for (auto& [k, v] : aux)
      if (k == key) {
        v = std::move(value);
        return;
      }
    aux.emplace_back(key, std::move(value));
  }
};

/// Serializes to the meshroute-snapshot/1 byte form.
std::string serialize_snapshot(const EngineSnapshot& snap);

/// Parses the byte form. Throws SnapshotError{Format} on anything that is
/// not a well-formed, checksum-clean meshroute-snapshot/1.
EngineSnapshot parse_snapshot(std::string_view bytes);

/// Atomic file round-trip (write = tmp + rename). read throws
/// SnapshotError{Io} when the file cannot be opened and {Format} per
/// parse_snapshot; write throws SnapshotError{Io} on filesystem failure.
void write_snapshot_file(const std::string& path, const EngineSnapshot& snap);
EngineSnapshot read_snapshot_file(const std::string& path);

/// Mixin for components whose internal state must ride along in a
/// checkpoint (traffic sources: RNG + emission window; see
/// traffic/source.hpp). save_state() returns an opaque blob;
/// restore_state() must accept exactly what save_state() produced and
/// throws SnapshotError{Format} otherwise. A component restored from its
/// own blob continues bit-identically.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual std::string save_state() const = 0;
  virtual void restore_state(const std::string& blob) = 0;
};

/// Where (and how often) a run persists checkpoints. Shared by the batch
/// harness (RunSpec) and the steady-state runner (SteadyStateSpec). `key`
/// names the run inside `dir`; its one record is the engine snapshot at
/// <dir>/<key>.ckpt, written every `every` steps and when the run ends
/// (run_to_drain, traffic/drain.hpp). A run started with an existing
/// .ckpt restores it and continues; a finished run's .ckpt steps nothing.
struct CheckpointSpec {
  std::string dir;   ///< empty = checkpointing disabled
  Step every = 256;  ///< snapshot interval in steps (>= 1)
  std::string key;   ///< file stem, unique per run within dir

  bool enabled() const { return !dir.empty() && !key.empty(); }
  std::string snapshot_path() const { return dir + "/" + key + ".ckpt"; }
};

/// Atomic small-file helpers for checkpoint stores (tmp + rename, like
/// write_snapshot_file). read returns false when absent/unreadable; write
/// throws SnapshotError{Io} on failure and creates `dir` components of
/// the path as needed.
bool read_text_file(const std::string& path, std::string* out);
void write_text_file_atomic(const std::string& path,
                            const std::string& content);

}  // namespace mr
