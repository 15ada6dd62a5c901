// Engine::snapshot() / Engine::restore(): extraction and reconstruction
// of the between-steps engine state (sim/snapshot.hpp).
//
// The snapshot stores only primary state: packet records, node state
// words, the injection buffer and the run counters. Everything else the
// engine keeps — the NodeQueues slab, inlink occupancy counters, the
// bands' active lists and waiting FIFOs, cached profitable masks — is
// derived, and restore() rebuilds it from the packet records: packets
// sorted by (location, slot) replayed through the slab reproduce the exact
// queue contents, and since that order is ascending in location, every
// band's active list comes out sorted for free.
#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <string>

namespace mr {
namespace {

[[noreturn]] void format_error(const std::string& what) {
  throw SnapshotError(SnapshotError::Kind::Format, "snapshot: " + what);
}

template <typename T>
void require_match(const char* field, const T& have, const T& want) {
  if (have != want) {
    if constexpr (std::is_same_v<T, std::string>) {
      throw SnapshotError(SnapshotError::Kind::Mismatch,
                          std::string("snapshot ") + field + " mismatch: snapshot has \"" +
                              have + "\", engine has \"" + want + "\"");
    } else {
      throw SnapshotError(SnapshotError::Kind::Mismatch,
                          std::string("snapshot ") + field + " mismatch: snapshot has " +
                              std::to_string(static_cast<long long>(have)) +
                              ", engine has " +
                              std::to_string(static_cast<long long>(want)));
    }
  }
}

}  // namespace

EngineSnapshot Engine::snapshot() const {
  MR_REQUIRE_MSG(prepared_, "snapshot() before prepare()");
  EngineSnapshot s;
  s.meta.topology = topo_->name();
  s.meta.width = topo_width_;
  s.meta.height = topo_height_;
  s.meta.algorithm = algorithm_->name();
  s.meta.queue_capacity = queue_capacity_;
  s.meta.layout = layout_;
  s.meta.shards = num_shards_;
  s.meta.step = step_;

  s.packets = packets_;
  s.node_state = node_state_;
  s.injections = injections_;
  s.injection_cursor = injection_cursor_;
  // Packets waiting outside the network sit in their source's FIFO; the
  // snapshot carries their ids ascending, and restore rebuilds the FIFOs
  // from the packets.
  for (const Shard& sh : shards_)
    for (const std::uint32_t slot : sh.sources) {
      const WaitingSource& ws = sh.pool[slot];
      for (std::size_t i = ws.head; i < ws.fifo.size(); ++i)
        s.waiting_injections.push_back(ws.fifo[i].id);
    }
  std::sort(s.waiting_injections.begin(), s.waiting_injections.end());

  s.delivered_count = delivered_count_;
  s.stalled = stalled_;
  s.exchange_count = exchange_count_;
  s.max_occupancy_seen = max_occupancy_seen_;
  s.total_moves = total_moves_;
  s.stall_run = stall_run_;
  return s;
}

void Engine::restore(const EngineSnapshot& snap) {
  // --- identity validation (throws Mismatch, engine untouched) ----------
  require_match("topology", snap.meta.topology, topo_->name());
  require_match("width", snap.meta.width, topo_width_);
  require_match("height", snap.meta.height, topo_height_);
  require_match("algorithm", snap.meta.algorithm, algorithm_->name());
  require_match("k", snap.meta.queue_capacity, queue_capacity_);
  require_match("layout", static_cast<int>(snap.meta.layout),
                static_cast<int>(layout_));
  require_match("shards", snap.meta.shards, num_shards_);

  // --- internal consistency (throws Format, engine untouched) -----------
  const auto n = static_cast<std::size_t>(num_nodes_);
  if (snap.node_state.size() != n)
    format_error("node_state has " + std::to_string(snap.node_state.size()) +
                 " entries for a " + std::to_string(n) + "-node topology");
  const auto num_pk = snap.packets.size();
  std::size_t queued_count = 0;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < num_pk; ++i) {
    const Packet& pk = snap.packets[i];
    if (static_cast<std::size_t>(pk.id) != i) format_error("packet id/index mismatch");
    if (pk.source < 0 || pk.source >= num_nodes_ || pk.dest < 0 ||
        pk.dest >= num_nodes_)
      format_error("packet endpoint out of range");
    if (pk.delivered()) {
      ++delivered;
      continue;
    }
    if (pk.slot < 0) continue;  // due later, or waiting outside the network
    ++queued_count;
    if (pk.location < 0 || pk.location >= num_nodes_)
      format_error("queued packet location out of range");
    const bool tag_ok = layout_ == QueueLayout::Central
                            ? pk.queue == kCentralQueue
                            : pk.queue < kNumDirs;
    if (!tag_ok) format_error("packet queue tag does not fit the layout");
  }
  if (snap.delivered_count != delivered)
    format_error("delivered_count disagrees with the packet records");
  if (snap.injection_cursor > snap.injections.size())
    format_error("injection cursor past the end of the injection buffer");
  for (const auto& [step, id] : snap.injections)
    if (id < 0 || static_cast<std::size_t>(id) >= num_pk)
      format_error("injection references unknown packet");
  // Every packet still outside the network — pending (at or past the
  // cursor) or waiting for a full source queue — must be undelivered and
  // unqueued, and listed once: injecting it would otherwise enqueue a
  // packet twice or revive a delivered one. Pending entries are consumed
  // in buffer order, so they must be sorted by step.
  std::vector<std::uint8_t> outside(num_pk, 0);
  const auto require_outside = [&](PacketId id, const char* list) {
    const Packet& pk = snap.packets[static_cast<std::size_t>(id)];
    if (pk.delivered() || pk.slot >= 0)
      format_error(std::string(list) + " packet is already in the network");
    if (outside[static_cast<std::size_t>(id)]++ != 0)
      format_error(std::string(list) + " packet " + std::to_string(id) +
                   " is listed twice outside the network");
  };
  const auto cursor = static_cast<std::size_t>(snap.injection_cursor);
  for (std::size_t i = cursor; i < snap.injections.size(); ++i) {
    if (i > cursor && snap.injections[i].first < snap.injections[i - 1].first)
      format_error("pending injections are not sorted by step");
    require_outside(snap.injections[i].second, "pending");
  }
  for (std::size_t i = 0; i < snap.waiting_injections.size(); ++i) {
    const PacketId id = snap.waiting_injections[i];
    if (id < 0 || static_cast<std::size_t>(id) >= num_pk)
      format_error("waiting list references unknown packet");
    if (i > 0 && id <= snap.waiting_injections[i - 1])
      format_error("waiting injections are not in ascending id order");
    require_outside(id, "waiting");
  }
  // Queued packets in (location, slot) order: each node's slots must run
  // 0, 1, 2, ... with no gap or duplicate, and no queue may exceed k.
  // Replaying this order through the slab below then reproduces every
  // queue in arrival order.
  std::vector<PacketId> queued;
  queued.reserve(queued_count);
  for (const Packet& pk : snap.packets)
    if (!pk.delivered() && pk.slot >= 0) queued.push_back(pk.id);
  std::sort(queued.begin(), queued.end(), [&snap](PacketId a, PacketId b) {
    const Packet& pa = snap.packets[static_cast<std::size_t>(a)];
    const Packet& pb = snap.packets[static_cast<std::size_t>(b)];
    if (pa.location != pb.location) return pa.location < pb.location;
    return pa.slot < pb.slot;
  });
  std::int32_t next_slot = 0;
  std::array<int, kNumDirs> inlink_used{};
  for (std::size_t i = 0; i < queued.size(); ++i) {
    const Packet& pk = snap.packets[static_cast<std::size_t>(queued[i])];
    if (i == 0 || pk.location != snap.packets[static_cast<std::size_t>(
                                     queued[i - 1])].location) {
      next_slot = 0;
      inlink_used.fill(0);
    }
    const int used = layout_ == QueueLayout::Central
                         ? next_slot
                         : inlink_used[static_cast<std::size_t>(pk.queue)]++;
    if (used >= queue_capacity_) format_error("queue over capacity in snapshot");
    if (pk.slot != next_slot++) format_error("queue slot sequence corrupt");
  }

  // --- adopt primary state ----------------------------------------------
  packets_ = snap.packets;
  node_state_ = snap.node_state;
  injections_ = snap.injections;
  injection_cursor_ = static_cast<std::size_t>(snap.injection_cursor);
  step_ = snap.meta.step;
  delivered_count_ = static_cast<std::size_t>(snap.delivered_count);
  stalled_ = snap.stalled;
  exchange_count_ = static_cast<std::size_t>(snap.exchange_count);
  max_occupancy_seen_ = snap.max_occupancy_seen;
  total_moves_ = snap.total_moves;
  stall_run_ = snap.stall_run;
  injected_this_step_ = 0;
  injected_deliveries_.clear();

  // --- rebuild derived state --------------------------------------------
  node_packets_.reset(n, node_packets_.stride());
  if (layout_ == QueueLayout::PerInlink) inlink_occ_.assign(n * kNumDirs, 0);
  is_active_.assign(n, 0);
  for (Shard& sh : shards_) {
    sh.active.clear();
    for (const std::uint32_t slot : sh.sources)
      release_waiting_source(sh, slot);
    sh.sources.clear();
    sh.waiting = 0;
  }

  for (PacketId p : queued) {
    Packet& pk = packets_[p];
    node_packets_.push_back(pk.location, p);
    pk.profitable = topo_->profitable_dirs(pk.location, pk.dest);
    if (layout_ == QueueLayout::PerInlink)
      ++inlink_occ_[inlink_index(pk.location, pk.queue)];
    if (!is_active_[pk.location]) {
      is_active_[pk.location] = 1;
      shards_[static_cast<std::size_t>(shard_of_node(pk.location))]
          .active.push_back(pk.location);
    }
  }
  for (Shard& sh : shards_)
    sh.active_sorted = sh.active.size();  // queued was location-ordered
  active_cache_valid_ = false;
  // Each band's waiting packets, grouped by source in id order (staged in
  // `due`, which is empty between steps), refill the FIFOs; the stage-time
  // tag is recomputed from the current destination.
  for (Shard& sh : shards_) sh.due.clear();
  for (PacketId p : snap.waiting_injections) {
    const Packet& pk = packets_[p];
    shards_[static_cast<std::size_t>(shard_of_node(pk.source))].due.push_back(
        DueInjection{pk.source, {p, injection_queue_tag(pk.source, pk.dest)}});
  }
  for (Shard& sh : shards_) {
    std::sort(sh.due.begin(), sh.due.end());
    for (std::size_t i = 0; i < sh.due.size(); ++i) {
      if (i == 0 || sh.due[i].source != sh.due[i - 1].source)
        sh.sources.push_back(acquire_waiting_source(sh, sh.due[i].source));
      enqueue_waiting(sh.pool[sh.sources.back()], sh.due[i].w);
    }
    sh.waiting = static_cast<std::int64_t>(sh.due.size());
    sh.due.clear();
  }

  // Fault availability is derived state: snapshots carry no fault fields,
  // the installed schedule is simply re-applied for the restored step.
  fault_epoch_ = -1;
  fault_blocked_this_step_ = 0;
  fault_deferred_this_step_ = 0;
  apply_faults(step_);
  reset_out_plans();

  prepared_ = true;
}

}  // namespace mr
