#include "check/reference_engine.hpp"

#include <algorithm>
#include <array>

namespace mr {

ReferenceEngine::ReferenceEngine(const Topology& topo, int queue_capacity,
                                 Step stall_limit, Algorithm& algorithm)
    : Sim(topo, queue_capacity, algorithm.queue_layout(),
          /*masks_cached=*/false),
      algorithm_(algorithm),
      stall_limit_(stall_limit),
      enforce_minimal_(algorithm.minimal()),
      max_stray_(algorithm.max_stray()) {
  MR_REQUIRE_MSG(stall_limit_ >= 0,
                 "stall_limit must be >= 0, got " << stall_limit_);
}

PacketId ReferenceEngine::add_packet(NodeId source, NodeId dest,
                                     Step injected_at) {
  MR_REQUIRE_MSG(!prepared_, "add_packet after prepare()");
  return register_packet(source, dest, injected_at);
}

int ReferenceEngine::occupancy(NodeId u, QueueTag tag) const {
  MR_REQUIRE(layout_ == QueueLayout::PerInlink);
  int count = 0;
  for (PacketId p : node_packets_.at(u))
    if (packets_[p].queue == tag) ++count;
  return count;
}

void ReferenceEngine::place_packet(PacketId p, NodeId node, QueueTag tag) {
  Packet& pk = packets_[p];
  pk.location = node;
  pk.queue = tag;
  pk.arrived_at = step_;
  node_packets_.push_back(node, p);
}

void ReferenceEngine::remove_from_node(PacketId p) {
  const NodeId u = packets_[p].location;
  const std::span<const PacketId> q = node_packets_.at(u);
  const auto it = std::find(q.begin(), q.end(), p);
  MR_REQUIRE(it != q.end());
  // erase_slot preserves arrival order of the remaining packets.
  node_packets_.erase_slot(u, static_cast<std::int32_t>(it - q.begin()));
}

void ReferenceEngine::record_occupancy(NodeId u) {
  if (layout_ == QueueLayout::Central) {
    max_occupancy_seen_ = std::max(max_occupancy_seen_, occupancy(u));
    return;
  }
  for (int t = 0; t < kNumDirs; ++t)
    max_occupancy_seen_ =
        std::max(max_occupancy_seen_, occupancy(u, static_cast<QueueTag>(t)));
}

void ReferenceEngine::rebuild_active() {
  active_.clear();
  for (NodeId u = 0; u < topology().num_nodes(); ++u)
    if (!node_packets_.empty(u)) active_.push_back(u);
}

QueueTag ReferenceEngine::injection_queue_tag(PacketId p) const {
  // Mirror of Engine::injection_queue_tag: the inlink opposite the first
  // profitable direction in E, W, N, S preference order; South if none.
  const Packet& pk = packets_[p];
  const DirMask m = topology().profitable_dirs(pk.source, pk.dest);
  for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South})
    if (mask_has(m, d)) return static_cast<QueueTag>(dir_index(opposite(d)));
  return static_cast<QueueTag>(dir_index(Dir::South));
}

void ReferenceEngine::inject_due_packets() {
  // Every undelivered packet that is not in the network and whose
  // injection step has come — equivalently the engine's waiting list plus
  // the newly due packets — offered in ascending PacketId order.
  injections_waiting_ = 0;
  for (std::size_t id = 0; id < packets_.size(); ++id) {
    Packet& pk = packets_[id];
    if (pk.delivered() || pk.location != kInvalidNode ||
        pk.injected_at > step_) {
      continue;
    }
    // A down source defers injection entirely — even source == dest
    // deliveries (mirror of Engine::inject_band).
    if (!node_available(pk.source)) {
      ++fault_deferred_this_step_;
      continue;
    }
    if (pk.source == pk.dest) {
      pk.delivered_at = step_;
      ++delivered_count_;
      ++injected_this_step_;
      injected_deliveries_.push_back(static_cast<PacketId>(id));
      continue;
    }
    const QueueTag tag = layout_ == QueueLayout::Central
                             ? kCentralQueue
                             : injection_queue_tag(static_cast<PacketId>(id));
    const int used = layout_ == QueueLayout::Central
                         ? occupancy(pk.source)
                         : occupancy(pk.source, tag);
    if (used >= queue_capacity_) {  // §5: wait outside the network
      ++injections_waiting_;
      continue;
    }
    place_packet(static_cast<PacketId>(id), pk.source, tag);
    pk.arrival_inlink = kNoInlink;
    ++injected_this_step_;
    record_occupancy(pk.source);
  }
}

void ReferenceEngine::prepare() {
  MR_REQUIRE_MSG(!prepared_, "prepare() called twice");
  prepared_ = true;
  step_ = 0;
  injected_this_step_ = 0;
  injected_deliveries_.clear();
  inject_due_packets();
  algorithm_.init(*this);
  rebuild_active();
  if (!observers_.empty()) {
    StepDigest digest;
    digest.step = 0;
    digest.injected_deliveries = injected_deliveries_;
    digest.deliveries = static_cast<std::int64_t>(injected_deliveries_.size());
    digest.injections = injected_this_step_;
    digest.injections_waiting = injections_waiting_;
    for (StepObserver* ob : observers_) ob->on_prepare(*this, digest);
  }
}

void ReferenceEngine::validate_out_plan(NodeId u, const OutPlan& plan,
                                        std::vector<std::uint8_t>& scheduled) {
  for (Dir d : kAllDirs) {
    const PacketId p = plan.scheduled(d);
    if (p == kInvalidPacket) continue;
    MR_REQUIRE_MSG(p >= 0 && static_cast<std::size_t>(p) < packets_.size(),
                   "scheduled unknown packet");
    const Packet& pk = packets_[p];
    MR_REQUIRE_MSG(pk.location == u,
                   "node " << u << " scheduled packet " << p
                           << " which is at node " << pk.location);
    MR_REQUIRE_MSG(!scheduled[static_cast<std::size_t>(p)],
                   "packet " << p << " scheduled on two outlinks");
    scheduled[static_cast<std::size_t>(p)] = 1;
    MR_REQUIRE_MSG(topology().neighbor(u, d) != kInvalidNode,
                   "node " << u << " scheduled packet off the mesh edge");
    if (enforce_minimal_) {
      MR_REQUIRE_MSG(
          topology().is_profitable(u, d, pk.dest),
          "minimal algorithm scheduled packet "
              << p << " on unprofitable outlink " << dir_name(d) << " at node "
              << u);
    } else if (max_stray_ >= 0) {
      const Coord target = topology().coord_of(topology().neighbor(u, d));
      const Coord s = topology().coord_of(pk.source);
      const Coord t = topology().coord_of(pk.dest);
      const bool inside =
          target.col >= std::min(s.col, t.col) - max_stray_ &&
          target.col <= std::max(s.col, t.col) + max_stray_ &&
          target.row >= std::min(s.row, t.row) - max_stray_ &&
          target.row <= std::max(s.row, t.row) + max_stray_;
      MR_REQUIRE_MSG(inside, "packet " << p << " strayed more than delta="
                                       << max_stray_
                                       << " beyond its rectangle");
    }
  }
}

bool ReferenceEngine::step_once() {
  MR_REQUIRE_MSG(prepared_, "step before prepare()");
  if (all_delivered()) return false;
  ++step_;

  injected_this_step_ = 0;
  injected_deliveries_.clear();
  fault_blocked_this_step_ = 0;
  fault_deferred_this_step_ = 0;
  apply_faults(step_);
  const auto exchanges_before = static_cast<std::int64_t>(exchange_count_);
  inject_due_packets();

  // Nodes that hold a packet after injection: phase (a) visits exactly
  // these, and phase (e) visits them again (drained or not) plus the
  // receivers.
  std::vector<std::uint8_t> held_packet(
      static_cast<std::size_t>(topology().num_nodes()), 0);
  for (NodeId u = 0; u < topology().num_nodes(); ++u)
    if (!node_packets_.empty(u)) held_packet[u] = 1;

  // ----- (a) outqueue policies schedule packets -------------------------
  std::vector<ScheduledMove> moves;
  std::vector<std::uint8_t> scheduled(packets_.size(), 0);
  for (NodeId u = 0; u < topology().num_nodes(); ++u) {
    if (node_packets_.empty(u)) continue;
    OutPlan plan;
    algorithm_.plan_out(*this, u, plan);
    validate_out_plan(u, plan, scheduled);
    for (Dir d : kAllDirs) {
      const PacketId p = plan.scheduled(d);
      if (p == kInvalidPacket) continue;
      moves.push_back(ScheduledMove{p, u, topology().neighbor(u, d), d});
    }
  }

  // Reroute-or-stall (mirror of Engine::filter_faulted_moves): drop every
  // scheduled move over a link a fault took down, before the adversary and
  // the delivery classification see the move list.
  if (faults_active()) {
    std::vector<ScheduledMove> surviving;
    for (const ScheduledMove& m : moves) {
      if (mask_has(available_mask(m.from), m.dir))
        surviving.push_back(m);
      else
        ++fault_blocked_this_step_;
    }
    moves.swap(surviving);
  }

  // ----- (b) adversary exchanges ----------------------------------------
  if (interceptor_ != nullptr) {
    in_interceptor_ = true;
    interceptor_->after_schedule(
        *this, std::span<const ScheduledMove>(moves));
    in_interceptor_ = false;
    if (enforce_minimal_) {
      for (const ScheduledMove& m : moves) {
        MR_REQUIRE_MSG(
            topology().is_profitable(m.from, m.dir, packets_[m.packet].dest),
            "exchange made scheduled move of packet " << m.packet
                                                      << " non-minimal");
      }
    }
  }

  // ----- (c) inqueue policies accept/reject ------------------------------
  // Arrivals at the destination are delivered by the model itself (§2).
  std::vector<ScheduledMove> deliveries;
  std::vector<Offer> offers;
  for (const ScheduledMove& m : moves) {
    const Packet& pk = packets_[m.packet];
    if (pk.dest == m.to) {
      deliveries.push_back(m);
    } else {
      offers.push_back(Offer{m.packet, m.from, m.to, m.dir,
                             topology().profitable_dirs(m.from, pk.dest)});
    }
  }
  // Receiving nodes ascending, offers within a node by travel direction —
  // the exact order the engine's 4-way bucket merge produces. A (to, dir)
  // pair determines the sender, so the order is total.
  std::sort(offers.begin(), offers.end(), [](const Offer& a, const Offer& b) {
    if (a.to != b.to) return a.to < b.to;
    return dir_index(a.dir) < dir_index(b.dir);
  });
  std::vector<Offer> accepted;
  std::size_t i = 0;
  while (i < offers.size()) {
    std::size_t j = i;
    while (j < offers.size() && offers[j].to == offers[i].to) ++j;
    const std::span<const Offer> group(offers.data() + i, j - i);
    MR_REQUIRE(group.size() <= kNumDirs);
    InPlan in_plan;
    algorithm_.plan_in(*this, offers[i].to, group, in_plan);
    for (std::size_t g = 0; g < group.size(); ++g)
      if (in_plan.accept[g]) accepted.push_back(group[g]);
    i = j;
  }

  // ----- (d) transmission -------------------------------------------------
  std::int64_t moved_this_step = 0;
  std::vector<MoveRecord> digest_moves;
  for (const ScheduledMove& m : deliveries) {
    Packet& pk = packets_[m.packet];
    remove_from_node(pk.id);
    pk.location = kInvalidNode;
    pk.delivered_at = step_;
    ++delivered_count_;
    ++moved_this_step;
    digest_moves.push_back(
        MoveRecord{pk.id, m.from, m.to, m.dir, /*delivered=*/true});
  }
  for (const Offer& o : accepted) {
    Packet& pk = packets_[o.packet];
    const NodeId from = pk.location;
    remove_from_node(pk.id);
    const QueueTag tag = layout_ == QueueLayout::Central
                             ? kCentralQueue
                             : static_cast<QueueTag>(
                                   dir_index(opposite(o.dir)));
    place_packet(pk.id, o.to, tag);
    pk.arrival_inlink = static_cast<std::uint8_t>(dir_index(opposite(o.dir)));
    ++moved_this_step;
    ++total_moves_;
    digest_moves.push_back(
        MoveRecord{pk.id, from, o.to, o.dir, /*delivered=*/false});
  }
  // No-overflow requirement of §2: check every node that received.
  for (const Offer& o : accepted) {
    if (layout_ == QueueLayout::Central) {
      MR_REQUIRE_MSG(occupancy(o.to) <= queue_capacity_,
                     "queue overflow at node "
                         << o.to << ": " << occupancy(o.to)
                         << " > k=" << queue_capacity_ << " (step " << step_
                         << ")");
    } else {
      for (int t = 0; t < kNumDirs; ++t) {
        MR_REQUIRE_MSG(
            occupancy(o.to, static_cast<QueueTag>(t)) <= queue_capacity_,
            "inlink queue overflow at node " << o.to << " queue " << t
                                             << " (step " << step_ << ")");
      }
    }
    record_occupancy(o.to);
  }

  // ----- (e) state updates -----------------------------------------------
  // Every node that held, sent or received a packet this step, ascending.
  for (const Offer& o : accepted) held_packet[o.to] = 1;
  for (NodeId u = 0; u < topology().num_nodes(); ++u)
    if (held_packet[u]) algorithm_.update_state(*this, u);

  rebuild_active();

  // Stall detection, same rule as the engine: no movement and no
  // successful injection counts as a stall step unless a future-dated
  // injection is still pending.
  bool future_injection_pending = false;
  for (const Packet& pk : packets_) {
    if (!pk.delivered() && pk.location == kInvalidNode &&
        pk.injected_at > step_) {
      future_injection_pending = true;
      break;
    }
  }
  if (moved_this_step == 0 && injected_this_step_ == 0 &&
      !future_injection_pending) {
    ++stall_run_;
    if (stall_limit_ > 0 && stall_run_ >= stall_limit_) stalled_ = true;
  } else {
    stall_run_ = 0;
  }

  if (!observers_.empty()) {
    StepDigest digest;
    digest.step = step_;
    digest.moves = digest_moves;
    digest.injected_deliveries = injected_deliveries_;
    digest.deliveries = static_cast<std::int64_t>(deliveries.size() +
                                                  injected_deliveries_.size());
    digest.injections = injected_this_step_;
    digest.injections_waiting = injections_waiting_;
    for (const MoveRecord& m : digest_moves)
      ++digest.moves_by_dir[dir_index(m.dir)];
    digest.exchanges =
        static_cast<std::int64_t>(exchange_count_) - exchanges_before;
    digest.stall_run = stall_run_;
    digest.fault_blocked = fault_blocked_this_step_;
    digest.fault_deferred = fault_deferred_this_step_;
    for (StepObserver* ob : observers_) ob->on_step(*this, digest);
  }
  return true;
}

Step ReferenceEngine::run(Step max_steps) {
  while (!all_delivered() && !stalled_ && step_ < max_steps) {
    if (!step_once()) break;
  }
  return step_;
}

void ReferenceEngine::exchange_destinations(PacketId a, PacketId b) {
  MR_REQUIRE_MSG(in_interceptor_,
                 "exchange_destinations outside interceptor phase (b)");
  MR_REQUIRE(a != b);
  std::swap(packets_[a].dest, packets_[b].dest);
  ++exchange_count_;  // no cached masks to refresh
}

}  // namespace mr
