#include "check/adversary.hpp"

namespace mr {

namespace {

/// Legality probes per scheduled move. The candidate pool is sorted by
/// distance-to-hot, so the scan stops at the first legal candidate (the
/// best one) anyway; the cap only bounds pathological all-illegal runs.
constexpr int kScanCap = 64;

/// Total legality probes per step across all moves. On large instances
/// most moves find no legal strictly-better candidate, and without a step
/// budget every such move burns kScanCap probes — O(moves · cap) of pure
/// failure. The budget keeps phase (b) at O(P + n + budget) per step;
/// the adversary simply resumes steering next step.
constexpr int kStepProbeBudget = 4096;

/// The fullest node this step (ties to the lowest id), or kInvalidNode on
/// an empty network.
NodeId hottest_node(const Sim& e) {
  NodeId hot = kInvalidNode;
  int best = 0;
  for (NodeId u : e.active_nodes()) {
    const int occ = e.occupancy(u);
    if (occ > best) {
      best = occ;
      hot = u;
    }
  }
  return hot;
}

}  // namespace

bool GreedyAdversary::dest_legal_for(const Sim& e, PacketId p,
                                     NodeId dest) const {
  const Packet& pk = e.packet(p);
  const NodeId at = pk.location != kInvalidNode ? pk.location : pk.source;
  // A packet already sitting on `dest` would never be delivered (delivery
  // happens on arrival only) and permanently stalls the run.
  if (at == dest) return false;
  const std::int32_t mi = scheduled_move_[static_cast<std::size_t>(p)];
  if (mi < 0) return true;
  const ScheduledMove& m = moves_[static_cast<std::size_t>(mi)];
  return e.topology().is_profitable(m.from, m.dir, dest);
}

void GreedyAdversary::after_schedule(Sim& e,
                                     std::span<const ScheduledMove> moves) {
  const NodeId hot = hottest_node(e);
  if (hot == kInvalidNode || moves.empty()) return;
  moves_ = moves;

  scheduled_move_.assign(e.num_packets(), -1);
  for (std::size_t i = 0; i < moves.size(); ++i)
    scheduled_move_[static_cast<std::size_t>(moves[i].packet)] =
        static_cast<std::int32_t>(i);

  // Candidate pool: every undelivered packet, ascending by destination
  // distance to the hot node (ties by id, so the pass is deterministic).
  // Distances are integers below width + height, so a counting sort over
  // the packets in id order yields that order in O(packets + width +
  // height).
  const Topology& topo = e.topology();
  bucket_start_.assign(
      static_cast<std::size_t>(topo.width() + topo.height()) + 1, 0);
  dist_.resize(e.num_packets());
  std::size_t undelivered = 0;
  for (std::size_t id = 0; id < e.num_packets(); ++id) {
    const Packet& qk = e.packet(static_cast<PacketId>(id));
    if (qk.delivered()) {
      dist_[id] = -1;
      continue;
    }
    dist_[id] = topo.distance(qk.dest, hot);
    ++bucket_start_[static_cast<std::size_t>(dist_[id]) + 1];
    ++undelivered;
  }
  for (std::size_t b = 1; b < bucket_start_.size(); ++b)
    bucket_start_[b] += bucket_start_[b - 1];
  pool_.resize(undelivered);
  for (std::size_t id = 0; id < e.num_packets(); ++id) {
    if (dist_[id] < 0) continue;
    pool_[bucket_start_[static_cast<std::size_t>(dist_[id])]++] =
        Candidate{dist_[id], static_cast<PacketId>(id)};
  }
  consumed_.assign(e.num_packets(), 0);

  // One greedy pass: each scheduled packet gets at most one exchange, with
  // the hottest-aimed legal partner still available. Consuming both sides
  // of a swap keeps the pool's cached distances valid — a swapped packet's
  // new destination is never re-offered this step.
  int swaps = 0;
  int budget = kStepProbeBudget;
  for (const ScheduledMove& m : moves) {
    if (max_swaps_per_step_ > 0 && swaps >= max_swaps_per_step_) break;
    if (budget <= 0) break;
    if (consumed_[static_cast<std::size_t>(m.packet)]) continue;
    const NodeId cur_dest = e.packet(m.packet).dest;
    const std::int32_t cur_dist = e.topology().distance(cur_dest, hot);
    if (cur_dist == 0) continue;  // already aimed at the hot node

    int probed = 0;
    for (const Candidate& c : pool_) {
      if (c.dist >= cur_dist) break;  // sorted: no improvement left
      if (probed >= kScanCap || budget <= 0) break;
      if (c.packet == m.packet ||
          consumed_[static_cast<std::size_t>(c.packet)])
        continue;
      ++probed;
      --budget;
      const NodeId cand_dest = e.packet(c.packet).dest;
      if (!dest_legal_for(e, m.packet, cand_dest)) continue;
      if (!dest_legal_for(e, c.packet, cur_dest)) continue;
      e.exchange_destinations(m.packet, c.packet);
      consumed_[static_cast<std::size_t>(m.packet)] = 1;
      consumed_[static_cast<std::size_t>(c.packet)] = 1;
      ++exchanges_;
      ++swaps;
      break;
    }
  }
}

}  // namespace mr
