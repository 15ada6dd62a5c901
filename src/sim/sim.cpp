#include "sim/sim.hpp"

#include <sys/mman.h>

namespace mr {

namespace {
// 64-bit FNV-1a, used for configuration fingerprints.
struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};
}  // namespace

Sim::Sim(const Topology& topo, int queue_capacity, QueueLayout layout,
         bool masks_cached)
    : topo_(topo.clone()),
      num_nodes_(topo.num_nodes()),
      topo_width_(topo.width()),
      topo_height_(topo.height()),
      wraps_(topo.is_torus()),
      queue_capacity_(queue_capacity),
      layout_(layout),
      masks_cached_(masks_cached) {
  MR_REQUIRE_MSG(queue_capacity_ >= 1,
                 "queue capacity k must be positive, got " << queue_capacity_);
  const auto n = static_cast<std::size_t>(num_nodes_);
  // Slab stride: full layout capacity plus one arrival per inlink of
  // transient headroom (phase (d) inserts before the capacity check runs).
  const std::int32_t per_node =
      layout_ == QueueLayout::PerInlink ? queue_capacity_ * kNumDirs
                                        : queue_capacity_;
  node_packets_.reset(n, per_node + kNumDirs);
  node_state_.assign(n, 0);
}

Sim::~Sim() = default;

void Sim::UnmapDeleter::operator()(OutPlan* p) const { ::munmap(p, bytes); }

void Sim::add_observer(StepObserver* observer) {
  MR_REQUIRE(observer != nullptr);
  observers_.push_back(observer);
}

PacketId Sim::register_packet(NodeId source, NodeId dest, Step injected_at) {
  MR_REQUIRE(source >= 0 && source < num_nodes_);
  MR_REQUIRE(dest >= 0 && dest < num_nodes_);
  MR_REQUIRE(injected_at >= 0);
  Packet pk;
  pk.id = static_cast<PacketId>(packets_.size());
  pk.source = source;
  pk.dest = dest;
  pk.injected_at = injected_at;
  packets_.push_back(pk);
  return pk.id;
}

void Sim::set_fault_schedule(FaultSchedule schedule) {
  const std::string error = validate_fault_schedule(schedule, *topo_);
  MR_REQUIRE_MSG(error.empty(), error);
  fault_schedule_ = std::move(schedule);
  fault_epoch_ = -1;
  faults_active_ = false;
}

DirMask Sim::available_mask(NodeId u) const {
  if (faults_active_) return fault_avail_[static_cast<std::size_t>(u)];
  DirMask m = 0;
  for (Dir d : kAllDirs)
    if (topo_->neighbor(u, d) != kInvalidNode) m |= dir_bit(d);
  return m;
}

void Sim::apply_faults(Step t) {
  if (fault_schedule_.empty()) return;
  const std::int64_t epoch = fault_schedule_.epoch_at(t);
  if (epoch == fault_epoch_) return;
  fault_epoch_ = epoch;
  const auto n = static_cast<std::size_t>(num_nodes_);
  node_down_.assign(n, 0);
  // Down outlink bits per node; a link fault removes both directions.
  std::vector<DirMask> link_down(n, 0);
  faults_active_ = false;
  for (const FaultEvent& e : fault_schedule_.events) {
    if (!(e.down_at <= t && t < e.up_at)) continue;
    faults_active_ = true;
    if (e.kind == FaultEvent::Kind::Node) {
      node_down_[static_cast<std::size_t>(e.node)] = 1;
    } else {
      link_down[static_cast<std::size_t>(e.node)] |= dir_bit(e.dir);
      const NodeId v = topo_->neighbor(e.node, e.dir);
      if (v != kInvalidNode)
        link_down[static_cast<std::size_t>(v)] |= dir_bit(opposite(e.dir));
    }
  }
  if (!faults_active_) {
    fault_avail_.clear();
    return;
  }
  fault_avail_.assign(n, 0);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (node_down_[static_cast<std::size_t>(u)]) continue;
    DirMask m = 0;
    for (Dir d : kAllDirs) {
      const NodeId v = topo_->neighbor(u, d);
      if (v == kInvalidNode || node_down_[static_cast<std::size_t>(v)] ||
          mask_has(link_down[static_cast<std::size_t>(u)], d))
        continue;
      m |= dir_bit(d);
    }
    fault_avail_[static_cast<std::size_t>(u)] = m;
  }
}

std::uint64_t Sim::fingerprint(bool include_dest) const {
  Fnv f;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    const std::span<const PacketId> q = node_packets_.at(u);
    if (q.empty() && node_state_[u] == 0) continue;
    f.mix(static_cast<std::uint64_t>(u));
    f.mix(node_state_[u]);
    for (PacketId p : q) {
      const Packet& pk = packets_[p];
      f.mix(static_cast<std::uint64_t>(pk.id));
      f.mix(static_cast<std::uint64_t>(pk.source));
      if (include_dest) f.mix(static_cast<std::uint64_t>(pk.dest));
      f.mix(pk.state);
      f.mix(pk.queue);
      f.mix(pk.arrival_inlink);
      f.mix(static_cast<std::uint64_t>(pk.arrived_at));
    }
  }
  return f.h;
}

void Observer::on_prepare(const Sim& e, const StepDigest& d) {
  for (PacketId p : d.injected_deliveries) on_deliver(e, e.packet(p));
  on_prepare_end(e);
}

void Observer::on_step(const Sim& e, const StepDigest& d) {
  for (PacketId p : d.injected_deliveries) on_deliver(e, e.packet(p));
  for (const MoveRecord& m : d.moves) {
    const Packet& pk = e.packet(m.packet);
    on_move(e, pk, m.from, m.to);
    if (m.delivered) on_deliver(e, pk);
  }
  on_step_end(e);
}

}  // namespace mr
