#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "core/parallel.hpp"

namespace mr {

Engine::Engine(const Topology& topo, Config config, Algorithm& algorithm)
    : Sim(topo, config.queue_capacity, algorithm.queue_layout(),
          /*masks_cached=*/true),
      algorithm_(&algorithm),
      stall_limit_(config.stall_limit),
      stall_counts_pending_(config.stall_counts_pending_injections),
      enforce_minimal_(algorithm.minimal()),
      max_stray_(algorithm.max_stray()) {
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
      max_stray_(first->max_stray()) {
  owned_algorithms_.push_back(std::move(first));
  init_engine(config);
  for (int s = 1; s < num_shards_; ++s) {
    owned_algorithms_.push_back(factory());
    Algorithm& a = *owned_algorithms_.back();
    MR_REQUIRE_MSG(
        a.queue_layout() == layout_ && a.minimal() == enforce_minimal_ &&
            a.max_stray() == max_stray_,
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

  // Devirtualise the topology for the step loops: one flat neighbour
  // lookup per (node, direction), filled from the virtual kernel here and
  // never consulted again.
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
  packet_scheduled_.push_back(0);
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
  // Re-offer packets that were due earlier but found a full queue, then
  // newly due packets; inject_band sorts them into id order.
  for (Shard& sh : shards_) {
    sh.due.clear();
    sh.due.swap(sh.waiting);
  }
  while (injection_cursor_ < injections_.size() &&
         injections_[injection_cursor_].first <= step_) {
    const PacketId p = injections_[injection_cursor_].second;
    shards_[static_cast<std::size_t>(shard_of_node(packets_[p].source))]
        .due.push_back(p);
    ++injection_cursor_;
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
  std::sort(sh.due.begin(), sh.due.end());
  for (PacketId p : sh.due) {
    Packet& pk = packets_[p];
    // A down source defers injection entirely — even source == dest
    // deliveries, which model an ejection at the (dead) node.
    if (!node_available(pk.source)) {
      sh.waiting.push_back(p);
      ++sh.fault_deferred;
      continue;
    }
    if (pk.source == pk.dest) {
      pk.delivered_at = step_;
      ++sh.delivered;
      ++sh.injected;
      if (observed) sh.injected_deliveries.push_back(p);
      continue;
    }
    const QueueTag tag = layout_ == QueueLayout::Central
                             ? kCentralQueue
                             : injection_queue_tag(p);
    const int used = layout_ == QueueLayout::Central
                         ? occupancy(pk.source)
                         : occupancy(pk.source, tag);
    if (used >= queue_capacity_) {
      sh.waiting.push_back(p);  // §5: wait outside the network
      continue;
    }
    place_packet(p, pk.source, tag, sh.active);
    pk.arrival_inlink = kNoInlink;
    ++sh.injected;
    record_occupancy(pk.source, sh.max_occupancy);
  }
  // Merge the newly activated nodes into the sorted prefix.
  const auto mid =
      sh.active.begin() + static_cast<std::ptrdiff_t>(sh.active_sorted);
  std::sort(mid, sh.active.end());
  std::inplace_merge(sh.active.begin(), mid, sh.active.end());
  sh.active_sorted = sh.active.size();
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

QueueTag Engine::injection_queue_tag(PacketId p) const {
  // A freshly injected packet joins the inlink queue it would have arrived
  // on had it been travelling already: the queue opposite one of its
  // profitable directions. Row movement is preferred so that dimension-order
  // routers see row packets in E/W queues. Uses only profitable directions,
  // hence destination-exchangeable-safe.
  const Packet& pk = packets_[p];
  const DirMask m = topo_->profitable_dirs(pk.source, pk.dest);
  for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South})
    if (mask_has(m, d)) return static_cast<QueueTag>(dir_index(opposite(d)));
  return static_cast<QueueTag>(dir_index(Dir::South));
}

void Engine::prepare() {
  MR_REQUIRE_MSG(!prepared_, "prepare() called twice");
  prepared_ = true;
  std::stable_sort(injections_.begin(), injections_.end());
  step_ = 0;
  packet_scheduled_.assign(packets_.size(), 0);
  const bool observed = !observers_.empty();
  stage_injections();
  for (Shard& sh : shards_) inject_band(sh, observed);
  fold_band_counters();
  // §3: the initial state of nodes/packets may depend on the initial
  // arrangement; the algorithm sets them here. Only instance 0 is init()ed
  // even with several bands: the state it sets lives in the Sim and is
  // shared by all planning instances.
  algorithm_->init(*this);
  if (observed) {
    StepDigest digest;
    digest.step = 0;
    digest.injected_deliveries = injected_deliveries_;
    digest.deliveries = static_cast<std::int64_t>(injected_deliveries_.size());
    digest.injections = injected_this_step_;
    for (StepObserver* ob : observers_) ob->on_prepare(*this, digest);
  }
}

void Engine::validate_out_plan(NodeId u, const OutPlan& plan) {
  for (Dir d : kAllDirs) {
    const PacketId p = plan.scheduled(d);
    if (p == kInvalidPacket) continue;
    MR_REQUIRE_MSG(p >= 0 && static_cast<std::size_t>(p) < packets_.size(),
                   "scheduled unknown packet");
    const Packet& pk = packets_[p];
    MR_REQUIRE_MSG(pk.location == u,
                   "node " << u << " scheduled packet " << p
                           << " which is at node " << pk.location);
    MR_REQUIRE_MSG(!packet_scheduled_[p],
                   "packet " << p << " scheduled on two outlinks");
    packet_scheduled_[p] = 1;
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
    for (NodeId u : sh.active) {
      if (node_packets_.empty(u)) continue;
      sh.out_plan.clear();
      alg.plan_out(*this, u, sh.out_plan);
      validate_out_plan(u, sh.out_plan);
      for (Dir d : kAllDirs) {
        const PacketId p = sh.out_plan.scheduled(d);
        if (p == kInvalidPacket) continue;
        sh.moves.push_back(ScheduledMove{p, u, neighbor_of(u, d), d});
      }
    }
    // Clear the double-schedule flags set by validate_out_plan: exactly the
    // scheduled packets, so this is O(moves) instead of O(all packets).
    for (const ScheduledMove& m : sh.moves) packet_scheduled_[m.packet] = 0;
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
      sh.in_plan.reset(sh.group.size());
      alg.plan_in(*this, v, std::span<const Offer>(sh.group), sh.in_plan);
      MR_REQUIRE(sh.in_plan.accept.size() == sh.group.size());
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
  // this step: the sorted pre-step active prefix plus the nodes activated
  // by transmissions (the appended tail, sorted here). A drained node
  // stays in the prefix until compaction, so senders are covered.
  run_shards([&](std::size_t si) {
    Shard& sh = shards_[si];
    Algorithm& alg = *shard_algorithms_[si];
    const std::size_t mid = sh.active_sorted;
    const std::size_t end = sh.active.size();
    std::sort(sh.active.begin() + static_cast<std::ptrdiff_t>(mid),
              sh.active.end());
    std::size_t i = 0, j = mid;
    while (i < mid || j < end) {
      NodeId v;
      if (j >= end || (i < mid && sh.active[i] < sh.active[j]))
        v = sh.active[i++];
      else
        v = sh.active[j++];
      alg.update_state(*this, v);
    }
    std::inplace_merge(sh.active.begin(),
                       sh.active.begin() + static_cast<std::ptrdiff_t>(mid),
                       sh.active.end());
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
    if (pk.location != kInvalidNode)
      pk.profitable = topo_->profitable_dirs(pk.location, pk.dest);
  }
  ++exchange_count_;
}

}  // namespace mr
