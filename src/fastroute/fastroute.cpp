#include "fastroute/fastroute.hpp"

#include <array>
#include <utility>

#include "core/assert.hpp"
#include "fastroute/bounds.hpp"
#include "fastroute/tiling.hpp"
#include "sim/sim.hpp"

namespace mr {

namespace {

// Packet::state layout (see the header).
constexpr std::uint64_t kParticipates = 1;
constexpr std::uint64_t kActive = 2;
constexpr std::uint64_t kForward = 4;
constexpr std::uint64_t kMovedNorth = 8;
constexpr std::uint64_t kParked = 16;
constexpr int kDestStripShift = 8;

std::int32_t dest_strip(std::uint64_t state) {
  return static_cast<std::int32_t>((state >> kDestStripShift) & 0xFF);
}

// Sim::node_state layout (see the header).
constexpr int kStampShift = 48;
constexpr int kOccupancyShift = 32;
constexpr std::uint64_t kSettled = std::uint64_t{1} << 31;
constexpr std::uint64_t kCounterMask = kSettled - 1;

/// The node's word if segment `idx` wrote it, else 0 (counter 0, not
/// settled).
std::uint64_t node_word(const Sim& e, NodeId u, std::size_t idx) {
  const std::uint64_t w = e.node_state(u);
  return (w >> kStampShift) == idx + 1 ? w : 0;
}

std::uint32_t node_count(const Sim& e, NodeId u, std::size_t idx) {
  return static_cast<std::uint32_t>(node_word(e, u, idx) & kCounterMask);
}

/// True if segment `idx` wrote the node's word and the node has held the
/// same packets since: nothing arrived (checked by the caller) and its
/// occupancy is unchanged (a step moves at most four packets out).
bool unchanged(const Sim& e, NodeId u, std::size_t idx) {
  const std::uint64_t w = e.node_state(u);
  return (w >> kStampShift) == idx + 1 &&
         ((w >> kOccupancyShift) & 0xFFFF) ==
             static_cast<std::uint64_t>(e.occupancy(u) & 0xFFFF);
}

/// One clockwise quarter-turn of the mesh: (c, r) → (r, n−1−c).
Coord rot_cw(Coord c, std::int32_t n) { return Coord{c.row, n - 1 - c.col}; }

bool is_sort_smooth(FastRouteAlgorithm::Kind k) {
  return k == FastRouteAlgorithm::Kind::SortSmoothEven ||
         k == FastRouteAlgorithm::Kind::SortSmoothOdd;
}

/// kParked for an active packet at canonical `loc` in a March: it sits on
/// the top row of its staging strip, so it cannot move until the March
/// ends.
std::uint64_t parked(const FastRouteAlgorithm::Segment& seg, Coord loc,
                     std::uint64_t state) {
  const std::int32_t row = seg.row_in_tile(loc);
  return row / seg.d == dest_strip(state) - 3 && row % seg.d == seg.d - 1
             ? kParked
             : 0;
}

}  // namespace

int fastroute_class(Coord src, Coord dst) {
  const std::int32_t dx = dst.col - src.col;
  const std::int32_t dy = dst.row - src.row;
  if (dy > 0 && dx >= 0) return 0;
  if (dx < 0 && dy >= 0) return 1;
  if (dy < 0 && dx <= 0) return 2;
  return 3;  // dx > 0 && dy <= 0 (also the degenerate dx==dy==0 case)
}

Coord FastRouteAlgorithm::Segment::canon(Coord real) const {
  Coord c = real;
  for (int r = 0; r < cls; ++r) c = rot_cw(c, n);
  if (horizontal) std::swap(c.col, c.row);
  return c;
}

std::int32_t FastRouteAlgorithm::Segment::row_in_tile(Coord canon) const {
  return canon.row - Tiling(n, tile, tiling).origin1d(canon.row);
}

bool FastRouteAlgorithm::Segment::same_tile(Coord canon_a,
                                            Coord canon_b) const {
  return Tiling(n, tile, tiling).same_tile(canon_a, canon_b);
}

FastRouteAlgorithm::Schedule::Schedule(std::int32_t side, Options options)
    : n(side) {
  std::int32_t m = n;
  while (m > 1 && m % 3 == 0) m /= 3;
  MR_REQUIRE_MSG(m == 1 && n >= 27,
                 "fastroute needs n a power of 3, n >= 27 (got " << n << ")");
  Step t = 0;
  auto push = [&](Kind kind, int cls, int j, int tiling, bool horizontal,
                  std::int32_t tile, int q, Step steps) {
    Segment seg;
    seg.kind = kind;
    seg.cls = cls;
    seg.j = j;
    seg.tiling = tiling;
    seg.horizontal = horizontal;
    seg.tile = tile;
    seg.d = tile / 27;
    seg.start = t;
    seg.length = steps;
    seg.q = q;
    seg.n = n;
    // Real directions of canonical north/east: map one hop each way from
    // the centre into the frame.
    const Coord mid{n / 2, n / 2};
    const Coord a = seg.canon(mid);
    for (Dir d : kAllDirs) {
      Coord hop = mid;
      switch (d) {
        case Dir::North: ++hop.row; break;
        case Dir::South: --hop.row; break;
        case Dir::East: ++hop.col; break;
        case Dir::West: --hop.col; break;
      }
      const Coord b = seg.canon(hop);
      if (b == Coord{a.col, a.row + 1}) seg.north = d;
      if (b == Coord{a.col + 1, a.row}) seg.east = d;
    }
    MR_REQUIRE(steps >= 1 && segments.size() < 0xFFFF);
    segment_of_step.resize(static_cast<std::size_t>(t + steps) + 1,
                           static_cast<std::uint16_t>(segments.size()));
    segments.push_back(seg);
    t += steps;
  };
  for (int cls = 0; cls < 4; ++cls) {
    for (std::int32_t tile = n, j = 0; tile >= 27; tile /= 3, ++j) {
      const FastRouteBounds bounds{j == 0 ? options.q0 : options.q_later};
      const std::int32_t d = tile / 27;
      const int tilings = j == 0 ? 1 : 3;
      for (const bool horizontal : {false, true}) {
        for (int o = 0; o < tilings; ++o) {
          push(Kind::March, cls, j, o, horizontal, tile, bounds.q,
               bounds.march_steps(d));
          push(Kind::SortSmoothEven, cls, j, o, horizontal, tile, bounds.q,
               bounds.sort_smooth_substep_steps(d));
          push(Kind::SortSmoothOdd, cls, j, o, horizontal, tile, bounds.q,
               bounds.sort_smooth_substep_steps(d));
          push(Kind::Balance, cls, j, o, horizontal, tile, bounds.q,
               FastRouteBounds::balancing_steps(tile));
        }
      }
    }
    push(Kind::BaseCase, cls, 0, 0, false, 0, options.q0,
         FastRouteBounds::base_case_steps());
  }
  length = t;
}

FastRouteAlgorithm::FastRouteAlgorithm(Options options) : options_(options) {
  MR_REQUIRE(options_.q0 >= 1 && options_.q_later >= 1);
}

std::string FastRouteAlgorithm::name() const {
  return options_.q_later < options_.q0 ? "fastroute-improved" : "fastroute";
}

int FastRouteAlgorithm::queue_bound() const {
  return FastRouteBounds{options_.q0}.total_queue_bound();
}

const char* FastRouteAlgorithm::kind_name(Kind k) {
  switch (k) {
    case Kind::March: return "March";
    case Kind::SortSmoothEven: return "Sort&Smooth(even)";
    case Kind::SortSmoothOdd: return "Sort&Smooth(odd)";
    case Kind::Balance: return "Balance";
    case Kind::BaseCase: return "BaseCase";
  }
  return "?";
}

const char* FastRouteAlgorithm::class_name(int cls) {
  constexpr const char* names[4] = {"NE", "NW", "SW", "SE"};
  return names[cls & 3];
}

const FastRouteAlgorithm::Schedule& FastRouteAlgorithm::schedule_for(
    const Sim& e) {
  if (!schedule_ || schedule_->n != e.mesh().width())
    schedule_.emplace(e.mesh().width(), options_);
  return *schedule_;
}

void FastRouteAlgorithm::init(Sim& e) {
  MR_REQUIRE_MSG(e.mesh().height() == e.mesh().width() && !e.mesh().is_torus(),
                 "fastroute needs a square mesh");
  schedule_for(e);
  MR_REQUIRE_MSG(e.queue_capacity() >= queue_bound(),
                 "engine queue capacity below the Lemma 28 bound "
                     << queue_bound());
  for (NodeId v = 0; v < e.mesh().num_nodes(); ++v)
    if (e.occupancy(v) > 0) enter_segment(e, v, 0);
}

void FastRouteAlgorithm::enter_segment(Sim& e, NodeId v,
                                       std::size_t idx) const {
  if (idx >= schedule_->segments.size()) return;
  const Segment& seg = schedule_->segments[idx];
  if (seg.kind == Kind::March || seg.kind == Kind::BaseCase) {
    // Subphase start: freeze participation and activity (§6.1 step 1). In
    // the base case everyone of the class participates; Lemma 18 places
    // them within 2 rows and 2 columns of their destinations.
    const Coord loc = seg.canon(e.mesh().coord_of(v));
    for (PacketId p : e.packets_at(v)) {
      const Packet& pk = e.packet(p);
      std::uint64_t s = pk.state & kMovedNorth;
      const Coord dst_real = e.mesh().coord_of(pk.dest);
      if (fastroute_class(e.mesh().coord_of(pk.source), dst_real) == seg.cls) {
        if (seg.kind == Kind::BaseCase) {
          s |= kParticipates | kActive;
        } else if (const Coord dst = seg.canon(dst_real);
                   seg.same_tile(loc, dst)) {
          const std::int32_t ds = seg.strip_of(dst);
          s |= kParticipates | static_cast<std::uint64_t>(ds)
                                   << kDestStripShift;
          if (ds - seg.strip_of(loc) >= 3) s |= kActive | parked(seg, loc, s);
        }
      }
      e.set_packet_state(p, s);
    }
  } else if (is_sort_smooth(seg.kind)) {
    for (PacketId p : e.packets_at(v))
      e.set_packet_state(p, e.packet(p).state & ~(kForward | kParked));
  }
  summarize(e, v, idx, 0);
}

void FastRouteAlgorithm::summarize(Sim& e, NodeId v, std::size_t idx,
                                   std::uint32_t received) const {
  // The counter: March, active packets in their staging strip; Sort&Smooth,
  // `received`; Balance, active packets. Settled: no packet here can be
  // scheduled before the segment ends unless another one arrives.
  const Segment& seg = schedule_->segments[idx];
  std::uint32_t count = 0;
  bool settled = true;
  std::int32_t strip = -1;  // the node's, computed on first need
  for (PacketId p : e.packets_at(v)) {
    const std::uint64_t s = e.packet(p).state;
    if (!(s & kActive)) continue;
    switch (seg.kind) {
      case Kind::March:
        if (!(s & kParked)) settled = false;
        if (strip < 0) strip = seg.strip_of(seg.canon(e.mesh().coord_of(v)));
        if (dest_strip(s) - 3 == strip) ++count;
        break;
      case Kind::SortSmoothEven:
      case Kind::SortSmoothOdd:
        if (!(s & kParked) && (dest_strip(s) % 2 == 0) ==
                                  (seg.kind == Kind::SortSmoothEven))
          settled = false;
        break;
      case Kind::Balance:
        settled = ++count <= 2;  // the 2-rule
        break;
      case Kind::BaseCase:
        settled = false;
        break;
    }
  }
  if (is_sort_smooth(seg.kind)) count = received;
  e.set_node_state(v, static_cast<std::uint64_t>(idx + 1) << kStampShift |
                          static_cast<std::uint64_t>(e.occupancy(v) & 0xFFFF)
                              << kOccupancyShift |
                          (settled ? kSettled : 0) | count);
}

void FastRouteAlgorithm::update_state(Sim& e, NodeId v) {
  const Schedule& sched = schedule_for(e);
  const Step t = e.step();
  const std::size_t idx = sched.segment_at(t);
  if (idx >= sched.segments.size()) return;
  const Segment& seg = sched.segments[idx];

  // This step's arrivals, under the rules and in the frame of the segment
  // they happened in, in packet-id order (at most one per inlink). Queues
  // keep arrival order, so they are the queue's tail.
  const std::span<const PacketId> queue = e.packets_at(v);
  std::size_t fresh = queue.size();
  while (fresh > 0 && e.packet(queue[fresh - 1]).arrived_at == t) --fresh;
  std::array<PacketId, kNumDirs> arrivals{};
  std::size_t count = 0;
  for (const PacketId p : queue.subspan(fresh)) {
    if (e.packet(p).arrival_inlink == kNoInlink) continue;  // injected
    MR_REQUIRE(count < arrivals.size());
    std::size_t at = count++;
    for (; at > 0 && arrivals[at - 1] > p; --at) arrivals[at] = arrivals[at - 1];
    arrivals[at] = p;
  }
  const std::uint8_t north_inlink =
      static_cast<std::uint8_t>(dir_index(opposite(seg.north)));
  std::uint32_t received = node_count(e, v, idx);  // Sort&Smooth counter
  for (std::size_t a = 0; a < count; ++a) {
    const Packet& pk = e.packet(arrivals[a]);
    std::uint64_t s = pk.state & ~kMovedNorth;
    if (s & kParticipates) {
      if (pk.arrival_inlink == north_inlink) s |= kMovedNorth;
      if (seg.kind == Kind::March && (s & kActive)) {
        s = (s & ~kParked) | parked(seg, seg.canon(e.mesh().coord_of(v)), s);
      } else if (is_sort_smooth(seg.kind) && (s & kActive)) {
        const Coord loc = seg.canon(e.mesh().coord_of(v));
        s &= ~(kForward | kParked);
        if (seg.strip_of(loc) == dest_strip(s) - 2) {
          // Entered (or advanced within) strip i−2: the receiving node
          // counts it; the t-th node from the strip's north end holds
          // every t-th packet it receives and forwards the rest.
          ++received;
          const std::uint32_t t_n =
              static_cast<std::uint32_t>(seg.d - seg.row_in_tile(loc) % seg.d);
          s |= received % t_n != 0 ? kForward : kParked;
        }  // else still merging inside strip i−3
      }
    }
    e.set_packet_state(pk.id, s);
  }

  if (t == seg.end())
    enter_segment(e, v, idx + 1);
  else if (fresh < queue.size() || !unchanged(e, v, idx))
    summarize(e, v, idx, received);
}

void FastRouteAlgorithm::plan_out(Sim& e, NodeId u, OutPlan& plan) {
  const Schedule& sched = schedule_for(e);
  const std::size_t idx = sched.segment_at(e.step());
  if (idx >= sched.segments.size()) return;
  if (node_word(e, u, idx) & kSettled) return;
  switch (sched.segments[idx].kind) {
    case Kind::March: plan_march(e, u, plan, idx); break;
    case Kind::SortSmoothEven: plan_sort_smooth(e, u, plan, idx, true); break;
    case Kind::SortSmoothOdd: plan_sort_smooth(e, u, plan, idx, false); break;
    case Kind::Balance: plan_balance(e, u, plan, idx); break;
    case Kind::BaseCase: plan_base_case(e, u, plan, idx); break;
  }
}

void FastRouteAlgorithm::plan_in(Sim&, NodeId, std::span<const Offer>,
                                 InPlan& plan) {
  // All refusal logic is sender-side (a node can observe its neighbour's
  // staging occupancy); the engine still validates the Lemma 28 capacity.
  plan.accept.fill(true);
}

void FastRouteAlgorithm::plan_march(Sim& e, NodeId u, OutPlan& plan,
                                    std::size_t idx) const {
  const Segment& seg = schedule_->segments[idx];
  const Step t = e.step();
  const NodeId north = e.mesh().neighbor(u, seg.north);
  if (north == kInvalidNode) return;
  const std::int32_t s = seg.strip_of(seg.canon(e.mesh().coord_of(u)));
  const std::int32_t north_strip =
      seg.strip_of(seg.canon(e.mesh().coord_of(north)));
  const bool north_full =
      node_count(e, north, idx) >= static_cast<std::uint32_t>(seg.q);

  PacketId best = kInvalidPacket;
  int best_rank = 0;  // lower is better
  Step best_arrived = 0;
  for (PacketId p : e.packets_at(u)) {
    const Packet& pk = e.packet(p);
    if (!(pk.state & kActive)) continue;
    const std::int32_t staging = dest_strip(pk.state) - 3;
    // Transit northward, or pack farther north within the staging strip.
    if (s > staging || (s == staging && north_strip != staging)) continue;
    // The staging node refuses packets of its group once it holds q.
    if (north_strip == staging && north_full) continue;
    // Priority (Lemma 29): the packet that moved north last step first,
    // then transit before packing, then FIFO.
    const bool convoy = (pk.state & kMovedNorth) && pk.arrived_at == t - 1;
    const int rank = (convoy ? 0 : 2) + (s < staging ? 0 : 1);
    if (best == kInvalidPacket || rank < best_rank ||
        (rank == best_rank && pk.arrived_at < best_arrived)) {
      best = p;
      best_rank = rank;
      best_arrived = pk.arrived_at;
    }
  }
  if (best != kInvalidPacket) plan.schedule(seg.north, best);
}

void FastRouteAlgorithm::plan_sort_smooth(Sim& e, NodeId u, OutPlan& plan,
                                          std::size_t idx, bool even) const {
  const Segment& seg = schedule_->segments[idx];
  const Coord loc = seg.canon(e.mesh().coord_of(u));
  const std::int32_t s = seg.strip_of(loc);
  const Step local = e.step() - seg.start;  // 1-based within the segment

  // Role 1: node of strip i−3 (stash): from local step t_pos on, send the
  // stashed packet with the farthest east to go.
  const std::int32_t t_pos = seg.row_in_tile(loc) % seg.d + 1;  // 1 = south
  PacketId stash_best = kInvalidPacket;
  std::int32_t stash_dist = -1;
  // Role 2: node of strip i−2: forward the marked packets FIFO.
  PacketId fwd_best = kInvalidPacket;
  Step fwd_arrived = 0;

  for (PacketId p : e.packets_at(u)) {
    const Packet& pk = e.packet(p);
    if (!(pk.state & kActive)) continue;
    const std::int32_t ds = dest_strip(pk.state);
    if ((ds % 2 == 0) != even) continue;
    if (s == ds - 3) {
      if (local < t_pos) continue;
      const std::int32_t dist =
          seg.canon(e.mesh().coord_of(pk.dest)).col - loc.col;
      if (dist > stash_dist) {
        stash_dist = dist;
        stash_best = p;
      }
    } else if (s == ds - 2 && (pk.state & kForward)) {
      if (fwd_best == kInvalidPacket || pk.arrived_at < fwd_arrived) {
        fwd_best = p;
        fwd_arrived = pk.arrived_at;
      }
    }
  }
  // A node is in strip i−3 for one parity and i−2 for the other, so at most
  // one of the two roles is live in any substep; prefer the stash if both
  // somehow apply.
  const PacketId chosen =
      stash_best != kInvalidPacket ? stash_best : fwd_best;
  if (chosen != kInvalidPacket) plan.schedule(seg.north, chosen);
}

void FastRouteAlgorithm::plan_balance(Sim& e, NodeId u, OutPlan& plan,
                                      std::size_t idx) const {
  const Segment& seg = schedule_->segments[idx];
  if (node_count(e, u, idx) <= 2) return;  // the 2-rule
  const Coord loc = seg.canon(e.mesh().coord_of(u));
  PacketId best = kInvalidPacket;
  std::int32_t best_dist = 0;
  for (PacketId p : e.packets_at(u)) {
    const Packet& pk = e.packet(p);
    if (!(pk.state & kActive)) continue;
    const std::int32_t dist =
        seg.canon(e.mesh().coord_of(pk.dest)).col - loc.col;
    if (dist > best_dist) {
      best_dist = dist;
      best = p;
    }
  }
  // Lemmas 16/17 guarantee a node with > 2 active packets holds one with
  // ground still to cover eastward; otherwise the invariant broke.
  MR_REQUIRE_MSG(best != kInvalidPacket,
                 "2-rule found no eastward-profitable active packet (Lemma "
                 "16/17 violated) at node "
                     << u);
  plan.schedule(seg.east, best);
}

void FastRouteAlgorithm::plan_base_case(Sim& e, NodeId u, OutPlan& plan,
                                        std::size_t idx) const {
  const Segment& seg = schedule_->segments[idx];
  const Coord loc = seg.canon(e.mesh().coord_of(u));
  PacketId east_best = kInvalidPacket, north_best = kInvalidPacket;
  std::int32_t east_dist = 0, north_dist = 0;
  for (PacketId p : e.packets_at(u)) {
    const Packet& pk = e.packet(p);
    if (!(pk.state & kParticipates)) continue;
    const Coord dst = seg.canon(e.mesh().coord_of(pk.dest));
    const std::int32_t de = dst.col - loc.col;
    const std::int32_t dn = dst.row - loc.row;
    if (de > 0) {
      if (de > east_dist) {
        east_dist = de;
        east_best = p;
      }
    } else if (dn > 0) {
      if (dn > north_dist) {
        north_dist = dn;
        north_best = p;
      }
    }
  }
  if (east_best != kInvalidPacket) plan.schedule(seg.east, east_best);
  if (north_best != kInvalidPacket) plan.schedule(seg.north, north_best);
}

}  // namespace mr
