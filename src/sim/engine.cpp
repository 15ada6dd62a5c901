#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include <sys/mman.h>

#include "core/parallel.hpp"

namespace mr {

Engine::Engine(const Topology& topo, Config config, Algorithm& algorithm)
    : Sim(topo, config.queue_capacity, algorithm.queue_layout(),
          /*masks_cached=*/true),
      algorithm_(&algorithm),
      stall_limit_(config.stall_limit),
      stall_counts_pending_(config.stall_counts_pending_injections),
      enforce_minimal_(algorithm.minimal()),
      max_stray_(algorithm.max_stray()),
      reuse_out_plans_(algorithm.plan_out_reads_queue_only()) {
  init_engine(config);
  // A single shared Algorithm instance may hold per-call scratch, so the
  // bands must run serially; concurrent planning needs per-band instances.
  MR_REQUIRE_MSG(!pool_,
                 "Config::threads > 1 with shards > 1 requires the "
                 "AlgorithmFactory constructor");
}

Engine::Engine(const Topology& topo, Config config, const AlgorithmFactory& factory)
    : Engine(topo, config, factory(), factory) {}

Engine::Engine(const Topology& topo, Config config,
               std::unique_ptr<Algorithm> first,
               const AlgorithmFactory& factory)
    : Sim(topo, config.queue_capacity, first->queue_layout(),
          /*masks_cached=*/true),
      algorithm_(first.get()),
      stall_limit_(config.stall_limit),
      stall_counts_pending_(config.stall_counts_pending_injections),
      enforce_minimal_(first->minimal()),
      max_stray_(first->max_stray()),
      reuse_out_plans_(first->plan_out_reads_queue_only()) {
  owned_algorithms_.push_back(std::move(first));
  init_engine(config);
  for (int s = 1; s < num_shards_; ++s) {
    owned_algorithms_.push_back(factory());
    Algorithm& a = *owned_algorithms_.back();
    MR_REQUIRE_MSG(
        a.queue_layout() == layout_ && a.minimal() == enforce_minimal_ &&
            a.max_stray() == max_stray_ &&
            a.plan_out_reads_queue_only() == reuse_out_plans_,
        "AlgorithmFactory must produce identically configured instances");
    shard_algorithms_[static_cast<std::size_t>(s)] = &a;
  }
}

void Engine::init_engine(const Config& config) {
  MR_REQUIRE_MSG(stall_limit_ >= 0,
                 "stall_limit must be >= 0, got " << stall_limit_);
  MR_REQUIRE_MSG(config.shards >= 1,
                 "Config::shards must be >= 1, got " << config.shards);
  MR_REQUIRE_MSG(config.threads >= 0,
                 "Config::threads must be >= 0, got " << config.threads);
  const auto n = static_cast<std::size_t>(num_nodes_);
  is_active_.assign(n, 0);
  if (layout_ == QueueLayout::PerInlink) inlink_occ_.assign(n * kNumDirs, 0);

  // Flatten the topology for the step loops: one neighbour lookup per
  // (node, direction), filled from the kernel here; the step loops read
  // only the table.
  neighbor_tab_.assign(n * kNumDirs, kInvalidNode);
  for (NodeId u = 0; u < num_nodes_; ++u)
    for (int di = 0; di < kNumDirs; ++di) {
      const Dir d = static_cast<Dir>(di);
      neighbor_tab_[static_cast<std::size_t>(u) * kNumDirs +
                    static_cast<std::size_t>(di)] = topo_->neighbor(u, d);
    }

  // Row bands: band s owns rows [s*H/S, (s+1)*H/S), i.e. the contiguous
  // NodeId range [row_begin*W, row_end*W) under the row-major id layout.
  num_shards_ = std::min(config.shards, topo_height_);
  band_of_row_.assign(static_cast<std::size_t>(topo_height_), 0);
  shards_.clear();
  shards_.resize(static_cast<std::size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    const auto row_begin = static_cast<std::int32_t>(
        static_cast<std::int64_t>(s) * topo_height_ / num_shards_);
    const auto row_end = static_cast<std::int32_t>(
        static_cast<std::int64_t>(s + 1) * topo_height_ / num_shards_);
    for (std::int32_t r = row_begin; r < row_end; ++r)
      band_of_row_[static_cast<std::size_t>(r)] = s;
    shards_[static_cast<std::size_t>(s)].node_begin = row_begin * topo_width_;
    shards_[static_cast<std::size_t>(s)].node_end = row_end * topo_width_;
  }
  if (num_shards_ > 1) {
    std::size_t threads = config.threads == 0
                              ? default_thread_count()
                              : static_cast<std::size_t>(config.threads);
    threads = std::min(threads, static_cast<std::size_t>(num_shards_));
    if (threads > 1) pool_ = std::make_unique<WorkerPool>(threads);
  }
  shard_algorithms_.assign(static_cast<std::size_t>(num_shards_), algorithm_);
}

template <typename Fn>
void Engine::run_shards(const Fn& fn) {
  if (pool_) {
    pool_->run(static_cast<std::size_t>(num_shards_), fn);
  } else {
    for (std::size_t s = 0; s < static_cast<std::size_t>(num_shards_); ++s)
      fn(s);
  }
}

std::span<const NodeId> Engine::active_nodes() const {
  if (shards_.size() == 1) return shards_.front().active;
  if (!active_cache_valid_) {
    active_.clear();
    for (const Shard& sh : shards_)
      active_.insert(active_.end(), sh.active.begin(), sh.active.end());
    active_cache_valid_ = true;
  }
  return active_;
}

PacketId Engine::add_packet(NodeId source, NodeId dest, Step injected_at) {
  MR_REQUIRE_MSG(!prepared_, "add_packet after prepare()");
  const PacketId id = register_packet(source, dest, injected_at);
  injections_.emplace_back(injected_at, id);
  return id;
}

PacketId Engine::pump_packet(NodeId source, NodeId dest, Step injected_at) {
  MR_REQUIRE_MSG(prepared_, "pump_packet before prepare()");
  MR_REQUIRE_MSG(injected_at > step_,
                 "pump_packet must be future-dated: injected_at "
                     << injected_at << " <= current step " << step_);
  MR_REQUIRE_MSG(injections_.empty() ||
                     injected_at >= injections_.back().first,
                 "pump_packet out of order: injected_at "
                     << injected_at << " < pending tail "
                     << injections_.back().first);
  const PacketId id = register_packet(source, dest, injected_at);
  injections_.emplace_back(injected_at, id);
  return id;
}

QueueTag Engine::arrival_tag(Dir travel_dir) const {
  if (layout_ == QueueLayout::Central) return kCentralQueue;
  return static_cast<QueueTag>(dir_index(opposite(travel_dir)));
}

void Engine::place_packet(PacketId p, NodeId node, QueueTag tag,
                          std::vector<NodeId>& active_out) {
  Packet& pk = packets_[p];
  pk.location = node;
  pk.queue = tag;
  pk.arrived_at = step_;
  pk.profitable = topo_->profitable_dirs(node, pk.dest);
  pk.slot = node_packets_.push_back(node, p);
  mark_plan_stale(node);
  if (layout_ == QueueLayout::PerInlink) ++inlink_occ_[inlink_index(node, tag)];
  if (!is_active_[node]) {
    is_active_[node] = 1;
    active_out.push_back(node);
  }
}

void Engine::record_occupancy(NodeId u, int& peak) {
  // Transmissions within a step are simultaneous in the model, so peak
  // occupancy is only meaningful *between* steps (after phase (d)).
  if (layout_ == QueueLayout::Central) {
    peak = std::max(peak, occupancy(u));
    return;
  }
  const std::size_t base = inlink_index(u, 0);
  for (int t = 0; t < kNumDirs; ++t)
    peak = std::max(peak, static_cast<int>(inlink_occ_[base + t]));
}

void Engine::remove_from_node(PacketId p) {
  Packet& pk = packets_[p];
  const std::int32_t slot = pk.slot;
  MR_REQUIRE(slot >= 0 && slot < node_packets_.size(pk.location) &&
             node_packets_.at(pk.location)[static_cast<std::size_t>(slot)] ==
                 p);
  node_packets_.erase_slot(pk.location, slot);
  mark_plan_stale(pk.location);
  // Erasure preserves arrival order of the remaining packets; reindex the
  // ones that shifted down.
  const std::span<const PacketId> q = node_packets_.at(pk.location);
  for (std::size_t i = static_cast<std::size_t>(slot); i < q.size(); ++i)
    packets_[q[i]].slot = static_cast<std::int32_t>(i);
  if (layout_ == QueueLayout::PerInlink)
    --inlink_occ_[inlink_index(pk.location, pk.queue)];
  pk.slot = -1;
}

void Engine::stage_injections() {
  std::size_t end = injection_cursor_;
  while (end < injections_.size() && injections_[end].first <= step_) ++end;
  // Size each band's list before filling it: a batch run stages every
  // packet at prepare(), and growing the records by doubling would leave
  // up to twice the memory they need.
  for (Shard& sh : shards_) sh.staged = 0;
  for (std::size_t i = injection_cursor_; i < end; ++i)
    ++shards_[static_cast<std::size_t>(
                  shard_of_node(packets_[injections_[i].second].source))]
          .staged;
  for (Shard& sh : shards_) {
    sh.due.clear();
    sh.due.reserve(sh.staged);
  }
  for (; injection_cursor_ < end; ++injection_cursor_) {
    const PacketId p = injections_[injection_cursor_].second;
    const Packet& pk = packets_[p];
    shards_[static_cast<std::size_t>(shard_of_node(pk.source))].due.push_back(
        DueInjection{pk.source, {p, injection_queue_tag(pk.source, pk.dest)}});
  }
}

void Engine::inject_band(Shard& sh, bool observed) {
  sh.injected = 0;
  sh.moved = 0;
  sh.delivered = 0;
  sh.arrivals = 0;
  sh.fault_blocked = 0;
  sh.fault_deferred = 0;
  sh.max_occupancy = 0;
  sh.injected_deliveries.clear();
  if (sh.due.empty() && sh.sources.empty()) return;
  // Due packets are staged in id order, which traffic sources and
  // permutations emit source by source, so this is usually sorted already.
  if (!std::is_sorted(sh.due.begin(), sh.due.end()))
    std::sort(sh.due.begin(), sh.due.end());
  // One pass over the waiting sources and the sources of the newly due
  // packets, ascending by source: each source's due packets join its FIFO,
  // then the source admits what its queues have room for. Sources are
  // independent (only a node's own queue sees the order of its injections),
  // so this pass is the whole of the band's injection.
  sh.sources_next.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < sh.sources.size() || j < sh.due.size()) {
    std::uint32_t slot;
    if (j == sh.due.size() ||
        (i < sh.sources.size() &&
         sh.pool[sh.sources[i]].source <= sh.due[j].source)) {
      slot = sh.sources[i++];
    } else {
      // Nothing waits at this source: its due packets enter directly until
      // one cannot, and only the rest open a FIFO.
      const NodeId s = sh.due[j].source;
      if (node_available(s))
        while (j < sh.due.size() && sh.due[j].source == s &&
               try_inject(sh, s, sh.due[j].w, observed))
          ++j;
      if (j == sh.due.size() || sh.due[j].source != s) continue;
      slot = acquire_waiting_source(sh, s);
    }
    WaitingSource& ws = sh.pool[slot];
    for (; j < sh.due.size() && sh.due[j].source == ws.source; ++j) {
      enqueue_waiting(ws, sh.due[j].w);
      ++sh.waiting;
    }
    admit_waiting(sh, ws, observed);
    if (ws.size() == 0)
      release_waiting_source(sh, slot);
    else
      sh.sources_next.push_back(slot);
  }
  sh.sources.swap(sh.sources_next);
  merge_active(sh);
}

void Engine::merge_active(Shard& sh) {
  std::vector<NodeId>& a = sh.active;
  const std::size_t mid = sh.active_sorted;
  sh.active_sorted = a.size();
  if (mid == a.size()) return;
  const auto tail = a.begin() + static_cast<std::ptrdiff_t>(mid);
  std::sort(tail, a.end());
  if (mid == 0 || a[mid - 1] < a[mid]) return;
  // Merge from the back: the tail moves out to the band's scratch and the
  // prefix entries above its first element shift up behind it. The
  // scratch holds only this step's activations, and a write never passes
  // an unread prefix entry.
  sh.active_tail.assign(tail, a.end());
  std::size_t i = mid;
  std::size_t j = sh.active_tail.size();
  std::size_t k = a.size();
  while (j > 0)
    a[--k] = i > 0 && a[i - 1] > sh.active_tail[j - 1] ? a[--i]
                                                        : sh.active_tail[--j];
}

std::uint32_t Engine::acquire_waiting_source(Shard& sh, NodeId source) {
  std::uint32_t slot;
  if (sh.free_slots.empty()) {
    slot = static_cast<std::uint32_t>(sh.pool.size());
    sh.pool.emplace_back();
  } else {
    slot = sh.free_slots.back();
    sh.free_slots.pop_back();
  }
  WaitingSource& ws = sh.pool[slot];
  ws.source = source;
  ws.count.fill(0);
  return slot;
}

void Engine::release_waiting_source(Shard& sh, std::uint32_t slot) {
  WaitingSource& ws = sh.pool[slot];
  ws.fifo.clear();
  ws.head = 0;
  sh.free_slots.push_back(slot);
}

void Engine::enqueue_waiting(WaitingSource& ws, const WaitingInjection& w) {
  ++ws.count[tag_slot(w.tag)];
  if (ws.size() == 0 || ws.fifo.back().id < w.id) {
    ws.fifo.push_back(w);
    return;
  }
  // A packet due late with a smaller id than one still waiting: a global
  // id-order pass would offer it first, so it takes its id place.
  const auto at = std::upper_bound(
      ws.fifo.begin() + static_cast<std::ptrdiff_t>(ws.head), ws.fifo.end(),
      w.id, [](PacketId id, const WaitingInjection& x) { return id < x.id; });
  ws.fifo.insert(at, w);
}

bool Engine::try_inject(Shard& sh, NodeId s, const WaitingInjection& w,
                        bool observed) {
  if (w.tag == kSelfDelivery) {
    packets_[w.id].delivered_at = step_;
    ++sh.delivered;
    ++sh.injected;
    if (observed) sh.injected_deliveries.push_back(w.id);
    return true;
  }
  const int used = layout_ == QueueLayout::Central
                       ? occupancy(s)
                       : inlink_occ_[inlink_index(s, w.tag)];
  if (used >= queue_capacity_) return false;
  place_packet(w.id, s, w.tag, sh.active);
  packets_[w.id].arrival_inlink = kNoInlink;
  ++sh.injected;
  record_occupancy(s, sh.max_occupancy);
  return true;
}

bool Engine::may_admit(
    NodeId source, const std::array<std::int32_t, kNumTagSlots>& count) const {
  if (count[kSelfSlot] > 0) return true;
  if (layout_ == QueueLayout::Central)
    return count[kCentralSlot] > 0 && occupancy(source) < queue_capacity_;
  const std::size_t base = inlink_index(source, 0);
  for (std::size_t t = 0; t < kNumDirs; ++t)
    if (count[t] > 0 && inlink_occ_[base + t] < queue_capacity_) return true;
  return false;
}

void Engine::admit_waiting(Shard& sh, WaitingSource& ws, bool observed) {
  const NodeId s = ws.source;
  // A down source defers injection entirely — even source == dest
  // deliveries, which model an ejection at the (dead) node.
  if (!node_available(s)) {
    sh.fault_deferred += static_cast<std::int64_t>(ws.size());
    return;
  }
  if (!may_admit(s, ws.count)) return;  // §5: all wait outside the network
  // Walk in id order. `left` counts the packets not yet passed, per queue,
  // so the walk stops as soon as none of them could enter. Records that
  // stay are compacted to [head, keep_end) as the walk goes.
  std::array<std::int32_t, kNumTagSlots> left = ws.count;
  std::size_t keep_end = ws.head;
  std::size_t r = ws.head;
  while (r < ws.fifo.size()) {
    const WaitingInjection w = ws.fifo[r++];
    const std::size_t slot = tag_slot(w.tag);
    --left[slot];
    if (try_inject(sh, s, w, observed))
      --ws.count[slot];
    else
      ws.fifo[keep_end++] = w;  // §5: wait outside the network
    if (!may_admit(s, left)) break;
  }
  // The kept records move up against the unwalked rest; the other r -
  // keep_end walked records left the FIFO.
  const auto begin = ws.fifo.begin();
  std::move_backward(begin + static_cast<std::ptrdiff_t>(ws.head),
                     begin + static_cast<std::ptrdiff_t>(keep_end),
                     begin + static_cast<std::ptrdiff_t>(r));
  const std::size_t gone = r - keep_end;
  ws.head += gone;
  sh.waiting -= static_cast<std::int64_t>(gone);
  // Drop the dead prefix once it outweighs the live records, so a source
  // that never drains keeps a FIFO proportional to its backlog; each
  // record leaving pays O(1) toward the copy.
  if (ws.head > 0 && ws.head >= ws.size()) {
    ws.fifo.erase(begin, begin + static_cast<std::ptrdiff_t>(ws.head));
    ws.head = 0;
  }
}

std::int64_t Engine::injections_waiting() const {
  std::int64_t waiting = 0;
  for (const Shard& sh : shards_) waiting += sh.waiting - sh.fault_deferred;
  return waiting;
}

void Engine::filter_faulted_moves(std::vector<ScheduledMove>& moves,
                                  std::int64_t& blocked) {
  if (!faults_active_) return;
  std::size_t w = 0;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const ScheduledMove& m = moves[i];
    if (mask_has(fault_avail_[static_cast<std::size_t>(m.from)], m.dir)) {
      moves[w++] = moves[i];
    } else {
      ++blocked;
    }
  }
  moves.resize(w);
}

void Engine::classify_moves(std::size_t si) {
  // Arrivals at the destination are delivered by the model itself (§2) and
  // are not shown to the inqueue policy. Deliveries are sender-side
  // operations wherever the target node lives; offers go to the own-band
  // direction buckets or, when the target row lies in another band, to the
  // frontier mailbox that band reads after the barrier. Only N/S moves can
  // cross a band edge (bands are whole rows).
  Shard& sh = shards_[si];
  sh.deliveries.clear();
  for (auto& bucket : sh.dir_offers) bucket.clear();
  sh.frontier_up.clear();
  sh.frontier_down.clear();
  for (const ScheduledMove& m : sh.moves) {
    const Packet& pk = packets_[m.packet];
    if (pk.dest == m.to) {
      sh.deliveries.push_back(m);
      continue;
    }
    const Offer o{m.packet, m.from, m.to, m.dir, pk.profitable};
    if (sh.owns(m.to)) {
      sh.dir_offers[dir_index(m.dir)].push_back(o);
    } else if (m.dir == Dir::North) {
      sh.frontier_up.push_back(o);
    } else {
      sh.frontier_down.push_back(o);
    }
  }
}

std::int64_t Engine::fold_band_counters() {
  std::int64_t moved = 0;
  std::int64_t delivered = 0;
  std::int64_t arrivals = 0;
  injected_this_step_ = 0;
  injected_deliveries_.clear();
  for (const Shard& sh : shards_) {
    moved += sh.moved;
    delivered += sh.delivered;
    arrivals += sh.arrivals;
    injected_this_step_ += sh.injected;
    fault_blocked_this_step_ += sh.fault_blocked;
    fault_deferred_this_step_ += sh.fault_deferred;
    max_occupancy_seen_ = std::max(max_occupancy_seen_, sh.max_occupancy);
    injected_deliveries_.insert(injected_deliveries_.end(),
                                sh.injected_deliveries.begin(),
                                sh.injected_deliveries.end());
  }
  std::sort(injected_deliveries_.begin(), injected_deliveries_.end());
  delivered_count_ += static_cast<std::size_t>(delivered);
  total_moves_ += arrivals;
  active_cache_valid_ = false;
  return moved;
}

QueueTag Engine::injection_queue_tag(NodeId source, NodeId dest) const {
  // A freshly injected packet joins the inlink queue it would have arrived
  // on had it been travelling already: the queue opposite one of its
  // profitable directions. Row movement is preferred so that dimension-order
  // routers see row packets in E/W queues. Uses only profitable directions,
  // hence destination-exchangeable-safe.
  if (source == dest) return kSelfDelivery;
  if (layout_ == QueueLayout::Central) return kCentralQueue;
  const DirMask m = topo_->profitable_dirs(source, dest);
  for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South})
    if (mask_has(m, d)) return static_cast<QueueTag>(dir_index(opposite(d)));
  return static_cast<QueueTag>(dir_index(Dir::South));
}

void Engine::prepare() {
  MR_REQUIRE_MSG(!prepared_, "prepare() called twice");
  prepared_ = true;
  std::stable_sort(injections_.begin(), injections_.end());
  step_ = 0;
  const bool observed = !observers_.empty();
  stage_injections();
  for (Shard& sh : shards_) inject_band(sh, observed);
  fold_band_counters();
  // §3: the initial state of nodes/packets may depend on the initial
  // arrangement; the algorithm sets them here. Only instance 0 is init()ed
  // even with several bands: the state it sets lives in the Sim and is
  // shared by all planning instances.
  algorithm_->init(*this);
  reset_out_plans();
  if (observed) {
    StepDigest digest;
    digest.step = 0;
    digest.injected_deliveries = injected_deliveries_;
    digest.deliveries = static_cast<std::int64_t>(injected_deliveries_.size());
    digest.injections = injected_this_step_;
    digest.injections_waiting = injections_waiting();
    for (StepObserver* ob : observers_) ob->on_prepare(*this, digest);
  }
}

void Engine::reset_out_plans() {
  // A fault schedule masks the profitable outlinks a plan was made from,
  // and windows open and close without touching any queue, so reuse stays
  // off for the whole run while one is installed.
  if (!reuse_out_plans_ || !fault_schedule_.empty()) {
    out_plans_.reset();
    return;
  }
  // A fresh cache reads stale everywhere and costs only the pages active
  // nodes touch: an anonymous mapping hands out zero pages on first touch,
  // where a heap allocation that recycles freed memory (a repeated set-up)
  // would be cleared by writing all of it. A reused one (restore() on a
  // prepared engine) needs only the currently active nodes marked: every
  // other node is marked by place_packet when it next receives a packet.
  if (!out_plans_) {
    const std::size_t bytes =
        static_cast<std::size_t>(num_nodes_) * sizeof(OutPlan);
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    MR_REQUIRE_MSG(p != MAP_FAILED, "out-plan cache allocation failed");
    out_plans_ = std::unique_ptr<OutPlan[], UnmapDeleter>(
        static_cast<OutPlan*>(p), UnmapDeleter{bytes});
    return;
  }
  for (const Shard& sh : shards_)
    for (NodeId u : sh.active) mark_plan_stale(u);
}

void Engine::validate_out_plan(NodeId u, const OutPlan& plan) {
  for (int di = 0; di < kNumDirs; ++di) {
    const Dir d = kAllDirs[di];
    const PacketId p = plan.out[static_cast<std::size_t>(di)];
    if (p == kInvalidPacket) continue;
    MR_REQUIRE_MSG(p >= 0 && static_cast<std::size_t>(p) < packets_.size(),
                   "scheduled unknown packet");
    const Packet& pk = packets_[p];
    MR_REQUIRE_MSG(pk.location == u,
                   "node " << u << " scheduled packet " << p
                           << " which is at node " << pk.location);
    // The packet sits at u, so only u's plan can name it: a second outlink
    // carrying it is one of this plan's earlier entries.
    for (int dj = 0; dj < di; ++dj)
      MR_REQUIRE_MSG(plan.out[static_cast<std::size_t>(dj)] != p,
                     "packet " << p << " scheduled on two outlinks");
    MR_REQUIRE_MSG(neighbor_of(u, d) != kInvalidNode,
                   "node " << u << " scheduled packet off the mesh edge");
    if (enforce_minimal_) {
      // pk.profitable caches profitable_dirs(pk.location, pk.dest) and
      // pk.location == u was checked above.
      MR_REQUIRE_MSG(
          mask_has(pk.profitable, d),
          "minimal algorithm scheduled packet "
              << p << " on unprofitable outlink " << dir_name(d) << " at node "
              << u);
    } else if (max_stray_ >= 0) {
      // §5 nonminimal extension: a packet may never move more than δ nodes
      // beyond the rectangle of its shortest source→destination paths.
      const Coord target = topo_->coord_of(neighbor_of(u, d));
      const Coord s = topo_->coord_of(pk.source);
      const Coord t = topo_->coord_of(pk.dest);
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

// One step of the banded pipeline. Each phase runs band-local work only;
// cross-band data moves exclusively through single-writer mailboxes that
// are read after the phase barrier run_shards() provides, and every band
// visits its nodes in ascending NodeId order — see DESIGN.md §9 for the
// order-equivalence argument.
bool Engine::step_once() {
  MR_REQUIRE_MSG(prepared_, "step before prepare()");
  if (all_delivered()) return false;
  ++step_;

  // Phase profiling: zero clock reads unless enabled.
  using Clock = std::chrono::steady_clock;
  Clock::time_point step_begin, phase_begin;
  if (profiling_) step_begin = phase_begin = Clock::now();
  const auto phase_end = [&](StepPhase p) {
    if (!profiling_) return;
    const Clock::time_point now = Clock::now();
    phase_profile_.seconds[static_cast<int>(p)] +=
        std::chrono::duration<double>(now - phase_begin).count();
    phase_begin = now;
  };

  const bool observed = !observers_.empty();
  const std::size_t delivered_before = delivered_count_;
  exchanges_before_step_ = static_cast<std::int64_t>(exchange_count_);
  // Fault windows open/close on the coordinator before any band runs; the
  // availability masks are read-only for the rest of the step, so the
  // bands' concurrent reads are race-free.
  fault_blocked_this_step_ = 0;
  fault_deferred_this_step_ = 0;
  apply_faults(step_);
  stage_injections();

  // ---- injection + (a) outqueue policies, fused: both touch only nodes
  // and packets the band owns. Without an interceptor the moves are
  // classified in the same task; with one, classification waits for
  // phase (b), whose exchanges can turn an offer into a delivery and a
  // delivery into an offer.
  const bool intercepted = interceptor_ != nullptr;
  run_shards([&](std::size_t si) {
    Shard& sh = shards_[si];
    inject_band(sh, observed);
    Algorithm& alg = *shard_algorithms_[si];
    sh.moves.clear();
    const bool reuse = out_plans_ != nullptr;
    for (NodeId u : sh.active) {
      if (node_packets_.empty(u)) continue;
      // A node whose queue is unchanged since its last plan re-emits that
      // plan: the router declared the plan a function of the queue alone,
      // and the plan passed validation when it was made.
      const OutPlan* plan = &sh.out_plan;
      if (reuse && !out_plans_[static_cast<std::size_t>(u)].stale()) {
        plan = &out_plans_[static_cast<std::size_t>(u)];
      } else {
        sh.out_plan.clear();
        alg.plan_out(*this, u, sh.out_plan);
        validate_out_plan(u, sh.out_plan);
        if (reuse) out_plans_[static_cast<std::size_t>(u)] = sh.out_plan;
      }
      for (Dir d : kAllDirs) {
        const PacketId p = plan->scheduled(d);
        if (p == kInvalidPacket) continue;
        sh.moves.push_back(ScheduledMove{p, u, neighbor_of(u, d), d});
      }
    }
    // Reroute-or-stall: moves over links a fault took down are dropped (the
    // packet stays queued and is re-planned next step on the masked mask).
    // All of a band's moves originate at nodes it owns, so the per-band
    // counters partition the global count.
    filter_faulted_moves(sh.moves, sh.fault_blocked);
    if (!intercepted) classify_moves(si);
  });
  phase_end(StepPhase::PlanOut);

  // ---- (b) adversary exchanges, on the coordinator (one band).
  if (intercepted) {
    const std::vector<ScheduledMove>& moves = shards_.front().moves;
    in_interceptor_ = true;
    interceptor_->after_schedule(*this, moves);
    in_interceptor_ = false;
    if (enforce_minimal_) {
      // Destinations may have changed; every scheduled move must still be
      // minimal, otherwise the exchange rules were applied incorrectly.
      // (exchange_destinations refreshed the cached masks.)
      for (const ScheduledMove& m : moves) {
        MR_REQUIRE_MSG(
            mask_has(packets_[m.packet].profitable, m.dir),
            "exchange made scheduled move of packet " << m.packet
                                                      << " non-minimal");
      }
    }
  }
  phase_end(StepPhase::Interceptor);
  if (intercepted) classify_moves(0);

  // ---- (c) inqueue policies. Each band reads its incoming offers from
  // its own direction buckets, with the neighbours' frontier mailboxes
  // spliced in: frontier-from-below before own for North, own before
  // frontier-from-above for South. That order keeps each list ascending in
  // the receiving node, wrap links excepted.
  run_shards([&](std::size_t si) {
    Shard& sh = shards_[si];
    const std::size_t S = static_cast<std::size_t>(num_shards_);
    const Shard& below = shards_[(si + S - 1) % S];  // cyclic predecessor
    const Shard& above = shards_[(si + 1) % S];      // cyclic successor
    std::array<std::vector<Offer>*, kNumDirs> in{};
    for (int d = 0; d < kNumDirs; ++d) in[d] = &sh.dir_offers[d];
    const auto splice = [&](Dir d, const std::vector<Offer>& frontier,
                            bool frontier_first) {
      if (frontier.empty()) return;
      const std::vector<Offer>& own = sh.dir_offers[dir_index(d)];
      std::vector<Offer>& list = sh.in_offers[dir_index(d)];
      list.clear();
      if (frontier_first) list.insert(list.end(), frontier.begin(), frontier.end());
      list.insert(list.end(), own.begin(), own.end());
      if (!frontier_first) list.insert(list.end(), frontier.begin(), frontier.end());
      in[dir_index(d)] = &list;
    };
    splice(Dir::North, below.frontier_up, /*frontier_first=*/true);
    splice(Dir::South, above.frontier_down, /*frontier_first=*/false);
    if (wraps_) {
      // Wrap links break the monotone-receiver property. Keys are unique
      // per direction: a receiver has one inlink per direction.
      for (std::vector<Offer>* list : in)
        std::sort(list->begin(), list->end(),
                  [](const Offer& a, const Offer& b) { return a.to < b.to; });
    }

    // 4-way merge of the direction lists: visits receiving nodes in
    // ascending order, offers within a node in travel-direction order.
    sh.accepted.clear();
    sh.accept_back_prev.clear();
    sh.accept_back_next.clear();
    Algorithm& alg = *shard_algorithms_[si];
    std::array<std::size_t, kNumDirs> head{};
    for (;;) {
      NodeId v = kInvalidNode;
      for (int d = 0; d < kNumDirs; ++d) {
        if (head[d] < in[d]->size()) {
          const NodeId t = (*in[d])[head[d]].to;
          if (v == kInvalidNode || t < v) v = t;
        }
      }
      if (v == kInvalidNode) break;
      sh.group.clear();
      for (int d = 0; d < kNumDirs; ++d) {
        if (head[d] < in[d]->size() && (*in[d])[head[d]].to == v)
          sh.group.push_back((*in[d])[head[d]++]);
      }
      MR_REQUIRE(sh.group.size() <= kNumDirs);
      sh.in_plan.reset();
      alg.plan_in(*this, v, std::span<const Offer>(sh.group), sh.in_plan);
      for (std::size_t g = 0; g < sh.group.size(); ++g) {
        if (!sh.in_plan.accept[g]) continue;
        const Offer& o = sh.group[g];
        sh.accepted.push_back(o);
        if (!sh.owns(o.from)) {
          // Tell the sender band after the barrier (accept-back mailbox).
          if (o.dir == Dir::North)
            sh.accept_back_prev.push_back(o);
          else
            sh.accept_back_next.push_back(o);
        }
      }
    }
  });
  phase_end(StepPhase::PlanIn);

  // ---- (d) transmission, split at a barrier: removals are sender-band
  // work, insertions receiver-band work, and a frontier move's Packet
  // record is written by both — the barrier keeps the writes ordered.
  run_shards([&](std::size_t si) {
    Shard& sh = shards_[si];
    for (const ScheduledMove& m : sh.deliveries) {
      Packet& pk = packets_[m.packet];
      remove_from_node(pk.id);
      pk.location = kInvalidNode;
      pk.delivered_at = step_;
      ++sh.delivered;
      ++sh.moved;
    }
    for (const Offer& o : sh.accepted)
      if (sh.owns(o.from)) remove_from_node(o.packet);
    const std::size_t S = static_cast<std::size_t>(num_shards_);
    // Frontier offers this band sent that the neighbours accepted: the
    // successor's accept_back_prev and the predecessor's accept_back_next
    // both name senders in this band.
    for (const Offer& o : shards_[(si + 1) % S].accept_back_prev)
      remove_from_node(o.packet);
    for (const Offer& o : shards_[(si + S - 1) % S].accept_back_next)
      remove_from_node(o.packet);
  });
  run_shards([&](std::size_t si) {
    Shard& sh = shards_[si];
    for (const Offer& o : sh.accepted) {
      Packet& pk = packets_[o.packet];
      place_packet(pk.id, o.to, arrival_tag(o.dir), sh.active);
      pk.arrival_inlink = static_cast<std::uint8_t>(dir_index(opposite(o.dir)));
      ++sh.moved;
      ++sh.arrivals;
    }
    // No-overflow requirement of §2: check every node that received.
    for (const Offer& o : sh.accepted) {
      check_capacity_after_transmit(o.to);
      record_occupancy(o.to, sh.max_occupancy);
    }
  });
  phase_end(StepPhase::Transmit);

  // ---- (e) state updates + active-list compaction. update_state runs in
  // ascending NodeId over every node that held, sent or received a packet
  // this step: the sorted pre-step active prefix merged with the nodes
  // activated by transmissions (the appended tail). A drained node stays
  // in the list until compaction, so senders are covered.
  run_shards([&](std::size_t si) {
    Shard& sh = shards_[si];
    Algorithm& alg = *shard_algorithms_[si];
    merge_active(sh);
    for (NodeId v : sh.active) alg.update_state(*this, v);
    sh.active.erase(std::remove_if(sh.active.begin(), sh.active.end(),
                                   [&](NodeId u) {
                                     if (node_packets_.empty(u)) {
                                       is_active_[u] = 0;
                                       return true;
                                     }
                                     return false;
                                   }),
                    sh.active.end());
    sh.active_sorted = sh.active.size();
  });
  phase_end(StepPhase::Update);

  // ---- coordinator: fold the band counters, stall check, digest --------
  const std::int64_t moved_this_step = fold_band_counters();

  // Stall detection (livelock guard for buggy algorithms). A step with no
  // movement and no successful injection is a stall step even while
  // packets wait outside the network for a full queue — those can only
  // enter once something moves. Future-dated injections are exogenous
  // progress, so they defer the check — unless the open-loop policy is on:
  // a pump keeps such injections pending for the whole run, so deferring
  // on them would mask any deadlock until the drain phase.
  if (moved_this_step == 0 && injected_this_step_ == 0 &&
      (stall_counts_pending_ || injection_cursor_ == injections_.size())) {
    ++stall_run_;
    if (stall_limit_ > 0 && stall_run_ >= stall_limit_)
      stalled_ = true;
  } else {
    stall_run_ = 0;
  }

  if (observed) {
    // Band concatenation gives deliveries ascending in the sending node and
    // accepted hops ascending in the receiving node, because bands cover
    // ascending id ranges.
    digest_moves_.clear();
    for (const Shard& sh : shards_)
      for (const ScheduledMove& m : sh.deliveries)
        digest_moves_.push_back(
            MoveRecord{m.packet, m.from, m.to, m.dir, /*delivered=*/true});
    for (const Shard& sh : shards_)
      for (const Offer& o : sh.accepted)
        digest_moves_.push_back(
            MoveRecord{o.packet, o.from, o.to, o.dir, /*delivered=*/false});
    StepDigest digest;
    digest.step = step_;
    digest.moves = digest_moves_;
    digest.injected_deliveries = injected_deliveries_;
    digest.deliveries =
        static_cast<std::int64_t>(delivered_count_ - delivered_before);
    digest.injections = injected_this_step_;
    digest.injections_waiting = injections_waiting();
    for (const MoveRecord& m : digest_moves_)
      ++digest.moves_by_dir[dir_index(m.dir)];
    digest.exchanges =
        static_cast<std::int64_t>(exchange_count_) - exchanges_before_step_;
    digest.stall_run = stall_run_;
    digest.fault_blocked = fault_blocked_this_step_;
    digest.fault_deferred = fault_deferred_this_step_;
    for (StepObserver* ob : observers_) ob->on_step(*this, digest);
  }

  if (profiling_) {
    ++phase_profile_.steps;
    phase_profile_.total_seconds +=
        std::chrono::duration<double>(Clock::now() - step_begin).count();
  }
  return true;
}

Step Engine::run(Step max_steps) {
  while (!all_delivered() && !stalled_ && step_ < max_steps) {
    if (!step_once()) break;
  }
  return step_;
}

void Engine::check_capacity_after_transmit(NodeId v) {
  if (layout_ == QueueLayout::Central) {
    MR_REQUIRE_MSG(occupancy(v) <= queue_capacity_,
                   "queue overflow at node " << v << ": " << occupancy(v)
                                             << " > k=" << queue_capacity_
                                             << " (step " << step_ << ")");
    return;
  }
  const std::size_t base = inlink_index(v, 0);
  for (int t = 0; t < kNumDirs; ++t) {
    MR_REQUIRE_MSG(inlink_occ_[base + t] <= queue_capacity_,
                   "inlink queue overflow at node "
                       << v << " queue " << t << " (step " << step_
                       << ")");
  }
}

void Engine::exchange_destinations(PacketId a, PacketId b) {
  MR_REQUIRE_MSG(in_interceptor_,
                 "exchange_destinations outside interceptor phase (b)");
  MR_REQUIRE(a != b);
  std::swap(packets_[a].dest, packets_[b].dest);
  for (PacketId p : {a, b}) {
    Packet& pk = packets_[p];
    if (pk.location != kInvalidNode) {
      pk.profitable = topo_->profitable_dirs(pk.location, pk.dest);
      mark_plan_stale(pk.location);
      continue;
    }
    // A packet waiting outside the network keeps its injection queue in its
    // source's FIFO record; a new destination may change it. Packets not yet
    // due have no record: theirs is computed when they become due.
    Shard& sh = shards_[static_cast<std::size_t>(shard_of_node(pk.source))];
    const auto src = std::lower_bound(
        sh.sources.begin(), sh.sources.end(), pk.source,
        [&sh](std::uint32_t slot, NodeId u) {
          return sh.pool[slot].source < u;
        });
    if (src == sh.sources.end() || sh.pool[*src].source != pk.source) continue;
    WaitingSource& ws = sh.pool[*src];
    const auto rec = std::lower_bound(
        ws.fifo.begin() + static_cast<std::ptrdiff_t>(ws.head), ws.fifo.end(),
        p,
        [](const WaitingInjection& x, PacketId id) { return x.id < id; });
    if (rec == ws.fifo.end() || rec->id != p) continue;
    const QueueTag tag = injection_queue_tag(pk.source, pk.dest);
    --ws.count[tag_slot(rec->tag)];
    ++ws.count[tag_slot(tag)];
    rec->tag = tag;
  }
  ++exchange_count_;
}

}  // namespace mr
