#include "check/oracles.hpp"

#include <algorithm>
#include <sstream>

namespace mr {

void StepStamps::next_step(std::size_t size) {
  if (stamps_.size() < size) stamps_.resize(size, 0);
  if (++epoch_ == 0) {
    // The epoch wrapped: clear every stamp so none matches a reused value.
    std::fill(stamps_.begin(), stamps_.end(), 0);
    epoch_ = 1;
  }
}

void QueueBoundOracle::check(const Sim& e, const StepDigest& d) const {
  const int k = e.queue_capacity();
  const NodeId num_nodes = e.mesh().num_nodes();
  const bool central = e.queue_layout() == QueueLayout::Central;
  for (NodeId u = 0; u < num_nodes; ++u) {
    const std::span<const PacketId> q = e.packets_at(u);
    std::array<int, kNumDirs> per_tag{};
    for (PacketId p : q) {
      const Packet& pk = e.packet(p);
      MR_REQUIRE_MSG(pk.location == u,
                     "[oracle:queue-bound] packet "
                         << p << " queued at node " << u
                         << " but records location " << pk.location
                         << " (step " << d.step << ")");
      MR_REQUIRE_MSG(!pk.delivered(), "[oracle:queue-bound] delivered packet "
                                          << p << " still queued at node " << u
                                          << " (step " << d.step << ")");
      if (central) {
        MR_REQUIRE_MSG(pk.queue == kCentralQueue,
                       "[oracle:queue-bound] packet "
                           << p << " carries inlink tag "
                           << static_cast<int>(pk.queue)
                           << " under the central layout");
      } else {
        MR_REQUIRE_MSG(pk.queue < kNumDirs,
                       "[oracle:queue-bound] packet "
                           << p << " carries invalid inlink tag "
                           << static_cast<int>(pk.queue));
        ++per_tag[pk.queue];
      }
    }
    if (central) {
      MR_REQUIRE_MSG(static_cast<int>(q.size()) <= k,
                     "[oracle:queue-bound] node "
                         << u << " holds " << q.size() << " packets > k=" << k
                         << " (step " << d.step << ")");
    } else {
      for (int t = 0; t < kNumDirs; ++t) {
        MR_REQUIRE_MSG(per_tag[t] <= k, "[oracle:queue-bound] inlink queue "
                                            << t << " of node " << u
                                            << " holds " << per_tag[t]
                                            << " packets > k=" << k
                                            << " (step " << d.step << ")");
        // Cross-check the scan against the sim's own accessor: a mismatch
        // means an incremental counter drifted from the real queue.
        const int reported = e.occupancy(u, static_cast<QueueTag>(t));
        MR_REQUIRE_MSG(reported == per_tag[t],
                       "[oracle:queue-bound] node "
                           << u << " queue " << t << " reports occupancy "
                           << reported << " but holds " << per_tag[t]
                           << " (step " << d.step << ")");
      }
    }
  }
}

void LinkCapacityOracle::on_step(const Sim& e, const StepDigest& d) {
  links_.next_step(static_cast<std::size_t>(e.mesh().num_nodes()) * kNumDirs);
  packets_.next_step(e.num_packets());
  // Repeats are reported after the per-move checks, which keep precedence.
  bool link_reused = false;
  bool packet_reused = false;
  for (const MoveRecord& m : d.moves) {
    MR_REQUIRE_MSG(e.mesh().neighbor(m.from, m.dir) == m.to,
                   "[oracle:link-capacity] hop of packet "
                       << m.packet << " from " << m.from << " "
                       << dir_name(m.dir) << " does not land at " << m.to
                       << " (step " << d.step << ")");
    MR_REQUIRE_MSG(m.packet >= 0 &&
                       static_cast<std::size_t>(m.packet) < e.num_packets(),
                   "[oracle:link-capacity] hop names unknown packet "
                       << m.packet << " (step " << d.step << ")");
    link_reused |= !links_.insert(static_cast<std::size_t>(m.from) * kNumDirs +
                                  dir_index(m.dir));
    packet_reused |= !packets_.insert(static_cast<std::size_t>(m.packet));
    const Packet& pk = e.packet(m.packet);
    if (m.delivered) {
      MR_REQUIRE_MSG(pk.delivered() && pk.location == kInvalidNode &&
                         pk.dest == m.to,
                     "[oracle:link-capacity] delivering hop of packet "
                         << m.packet << " left it in the network (step "
                         << d.step << ")");
    } else {
      MR_REQUIRE_MSG(pk.location == m.to,
                     "[oracle:link-capacity] packet "
                         << m.packet << " recorded moving to " << m.to
                         << " but sits at " << pk.location << " (step "
                         << d.step << ")");
    }
  }
  MR_REQUIRE_MSG(!link_reused,
                 "[oracle:link-capacity] a directed link carried two packets"
                     << " in step " << d.step);
  MR_REQUIRE_MSG(!packet_reused,
                 "[oracle:link-capacity] a packet moved twice in step "
                     << d.step);
}

void ProfitableMoveOracle::on_step(const Sim& e, const StepDigest& d) {
  const Topology& mesh = e.mesh();
  for (const MoveRecord& m : d.moves) {
    // Destinations are stable from phase (b) on, so the post-step
    // destination is the one the packet carried when it was transmitted.
    const Packet& pk = e.packet(m.packet);
    if (minimal_) {
      MR_REQUIRE_MSG(
          mesh.distance(m.to, pk.dest) == mesh.distance(m.from, pk.dest) - 1,
          "[oracle:minimal-move] hop of packet "
              << m.packet << " from " << m.from << " to " << m.to
              << " does not reduce the distance to " << pk.dest << " (step "
              << d.step << ")");
      continue;
    }
    if (max_stray_ < 0) continue;
    const Coord at = mesh.coord_of(m.to);
    const Coord s = mesh.coord_of(pk.source);
    const Coord t = mesh.coord_of(pk.dest);
    const bool inside = at.col >= std::min(s.col, t.col) - max_stray_ &&
                        at.col <= std::max(s.col, t.col) + max_stray_ &&
                        at.row >= std::min(s.row, t.row) - max_stray_ &&
                        at.row <= std::max(s.row, t.row) + max_stray_;
    MR_REQUIRE_MSG(inside, "[oracle:minimal-move] packet "
                               << m.packet << " strayed more than delta="
                               << max_stray_ << " beyond its rectangle (step "
                               << d.step << ")");
  }
}

void ExchangeConsistencyOracle::snapshot(const Sim& e) {
  sources_.clear();
  dests_.clear();
  for (const Packet& pk : e.all_packets()) {
    sources_.push_back(pk.source);
    dests_.push_back(pk.dest);
  }
  primed_ = true;
}

void ExchangeConsistencyOracle::on_prepare(const Sim& e, const StepDigest&) {
  snapshot(e);
}

void ExchangeConsistencyOracle::on_step(const Sim& e, const StepDigest& d) {
  if (!primed_ || sources_.size() != e.num_packets()) {
    snapshot(e);  // attached mid-run: prime and start checking next step
    return;
  }
  const std::vector<Packet>& now = e.all_packets();
  for (std::size_t i = 0; i < now.size(); ++i) {
    MR_REQUIRE_MSG(now[i].source == sources_[i],
                   "[oracle:exchange] source of packet "
                       << i << " changed from " << sources_[i] << " to "
                       << now[i].source << " (step " << d.step << ")");
    if (d.exchanges == 0) {
      MR_REQUIRE_MSG(now[i].dest == dests_[i],
                     "[oracle:exchange] destination of packet "
                         << i << " changed from " << dests_[i] << " to "
                         << now[i].dest
                         << " in a step with no exchanges (step " << d.step
                         << ")");
    }
  }
  if (d.exchanges != 0) {
    // Exchanges permute destinations; they never invent addresses.
    std::vector<NodeId> before = dests_, after;
    after.reserve(now.size());
    for (const Packet& pk : now) after.push_back(pk.dest);
    std::sort(before.begin(), before.end());
    std::vector<NodeId> sorted_after = after;
    std::sort(sorted_after.begin(), sorted_after.end());
    MR_REQUIRE_MSG(before == sorted_after,
                   "[oracle:exchange] exchanges altered the destination "
                   "multiset (step "
                       << d.step << ")");
    dests_ = std::move(after);
  }
}

BoxEscapeOracle::BoxEscapeOracle(const MainGeometry& geometry, std::int32_t dn,
                                 std::size_t class_packet_count)
    : geo_(geometry),
      dn_(dn),
      class_count_(class_packet_count),
      escapes_n_(static_cast<std::size_t>(geometry.classes()) + 1, 0),
      escapes_e_(static_cast<std::size_t>(geometry.classes()) + 1, 0) {}

void BoxEscapeOracle::on_step(const Sim& e, const StepDigest& d) {
  const Step t = d.step;
  for (const MoveRecord& m : d.moves) {
    if (static_cast<std::size_t>(m.packet) >= class_count_) continue;
    const Packet& pk = e.packet(m.packet);
    const PacketClass cls = geo_.classify(e.mesh().coord_of(pk.source),
                                          e.mesh().coord_of(pk.dest));
    if (cls.type == ClassType::None) continue;
    const std::int64_t i = cls.i;
    if (!geo_.in_box(e.mesh().coord_of(m.from), i) ||
        geo_.in_box(e.mesh().coord_of(m.to), i)) {
      continue;  // not an escape from the i-box
    }
    MR_REQUIRE_MSG(t > (i - 1) * dn_,
                   "Lemma 1 violated: class-" << i << " packet " << m.packet
                                              << " left the i-box at step "
                                              << t);
    if (t <= i * dn_) {
      auto& count = cls.type == ClassType::N ? escapes_n_[i] : escapes_e_[i];
      ++count;
      MR_REQUIRE_MSG(count <= 1, "Lemma 2 violated: "
                                     << count << " class-" << i
                                     << " packets left the i-box in step "
                                     << t);
      max_escapes_ = std::max(max_escapes_, count);
    }
  }

  const bool full_scan = t != last_step_ + 1 || d.exchanges > 0;
  last_step_ = t;
  if (full_scan) {
    for (std::size_t id = 0; id < class_count_; ++id)
      check_confinement(e, static_cast<PacketId>(id), t);
  } else {
    for (const MoveRecord& m : d.moves)
      if (static_cast<std::size_t>(m.packet) < class_count_)
        check_confinement(e, m.packet, t);
  }
  // Escape counters are per step.
  std::fill(escapes_n_.begin(), escapes_n_.end(), 0);
  std::fill(escapes_e_.begin(), escapes_e_.end(), 0);
}

void BoxEscapeOracle::check_confinement(const Sim& e, PacketId id,
                                        Step t) const {
  const Packet& pk = e.packet(id);
  if (pk.delivered()) return;
  const PacketClass cls = geo_.classify(e.mesh().coord_of(pk.source),
                                        e.mesh().coord_of(pk.dest));
  if (cls.type == ClassType::None) return;
  const std::int64_t i = cls.i;
  const Step w = (t - 1) / dn_;  // window index: steps (w·dn, (w+1)·dn]
  // Packets awaiting injection sit at their source.
  const Coord at = e.mesh().coord_of(
      pk.location != kInvalidNode ? pk.location : pk.source);
  // Lemmas 5/6: classes j ≥ w+2 are still confined to the w-box.
  if (i >= w + 2) {
    MR_REQUIRE_MSG(geo_.in_box(at, w),
                   "Lemma 5/6 violated: class-" << i << " packet outside "
                                                << w << "-box at step " << t);
  }
  if (t <= i * dn_) {
    if (cls.type == ClassType::N) {
      // Lemma 7: not at/north of the E_i-row while west of N_i-column.
      MR_REQUIRE_MSG(!(at.row >= geo_.line(i) && at.col < geo_.line(i)),
                     "Lemma 7 violated at step " << t);
    } else {
      // Lemma 8: not at/east of the N_i-column while south of E_i-row.
      MR_REQUIRE_MSG(!(at.col >= geo_.line(i) && at.row < geo_.line(i)),
                     "Lemma 8 violated at step " << t);
    }
  }
}

void DigestHasher::mix(const StepDigest& d) {
  const auto mix64 = [this](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 1099511628211ULL;
    }
  };
  mix64(static_cast<std::uint64_t>(d.step));
  mix64(d.moves.size());
  for (const MoveRecord& m : d.moves) {
    mix64(static_cast<std::uint64_t>(m.packet));
    mix64(static_cast<std::uint64_t>(m.from));
    mix64(static_cast<std::uint64_t>(m.to));
    mix64(static_cast<std::uint64_t>(dir_index(m.dir)));
    mix64(m.delivered ? 1 : 0);
  }
  mix64(d.injected_deliveries.size());
  for (PacketId p : d.injected_deliveries)
    mix64(static_cast<std::uint64_t>(p));
  mix64(static_cast<std::uint64_t>(d.deliveries));
  mix64(static_cast<std::uint64_t>(d.injections));
  mix64(static_cast<std::uint64_t>(d.injections_waiting));
  for (std::int64_t c : d.moves_by_dir) mix64(static_cast<std::uint64_t>(c));
  mix64(static_cast<std::uint64_t>(d.exchanges));
  mix64(static_cast<std::uint64_t>(d.stall_run));
  mix64(static_cast<std::uint64_t>(d.fault_blocked));
  mix64(static_cast<std::uint64_t>(d.fault_deferred));
}

std::string run_trace_oracles(const std::vector<TraceEvent>& events,
                              const Topology& mesh,
                              const std::vector<Packet>& packets,
                              int queue_capacity, QueueLayout layout,
                              const FaultSchedule* faults) {
  std::ostringstream err;
  // Delivery step per packet (a packet delivers at most once).
  std::vector<Step> deliver_step(packets.size(), -1);
  Step max_step = 0;
  for (const TraceEvent& ev : events) {
    if (ev.packet < 0 || static_cast<std::size_t>(ev.packet) >= packets.size()) {
      err << "event references unknown packet " << ev.packet;
      return err.str();
    }
    max_step = std::max(max_step, ev.step);
    if (ev.kind != TraceEventKind::Deliver) continue;
    if (deliver_step[static_cast<std::size_t>(ev.packet)] >= 0) {
      err << "packet " << ev.packet << " delivered twice";
      return err.str();
    }
    deliver_step[static_cast<std::size_t>(ev.packet)] = ev.step;
  }
  for (const Packet& pk : packets) max_step = std::max(max_step, pk.injected_at);

  // Replayed state: position, per-queue occupancy and inlink tags,
  // advanced step by step. The injection rule mirrors the engines: due
  // packets enter in ascending id order whenever their target queue has
  // room (the central queue, or the inlink queue opposite the first
  // profitable direction in E, W, N, S preference order).
  const bool per_inlink = layout == QueueLayout::PerInlink;
  const std::size_t queues_per_node = per_inlink ? kNumDirs : 1;
  const auto queue_index = [&](NodeId u, int tag) {
    return static_cast<std::size_t>(u) * queues_per_node +
           static_cast<std::size_t>(per_inlink ? tag : 0);
  };
  const auto injection_tag = [&](const Packet& pk) {
    if (!per_inlink) return 0;
    const DirMask m = mesh.profitable_dirs(pk.source, pk.dest);
    for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South})
      if (mask_has(m, d)) return dir_index(opposite(d));
    return dir_index(Dir::South);
  };
  std::vector<NodeId> pos(packets.size(), kInvalidNode);
  std::vector<int> tag(packets.size(), 0);
  std::vector<std::uint8_t> entered(packets.size(), 0);
  std::vector<int> occ(
      static_cast<std::size_t>(mesh.num_nodes()) * queues_per_node, 0);
  std::size_t cursor = 0;
  // This step's hops, each with the first direction whose link reaches
  // its target: (from, that direction) names the same link as (from, to).
  struct Hop {
    const TraceEvent* ev;
    Dir dir;
  };
  std::vector<Hop> step_moves;
  StepStamps links, movers;
  for (Step t = 0; t <= max_step; ++t) {
    for (std::size_t id = 0; id < packets.size(); ++id) {
      const Packet& pk = packets[id];
      if (entered[id] || pk.injected_at > t) continue;
      // A down source defers injection entirely (even source == dest
      // deliveries), mirroring the engines' fault rule.
      if (faults != nullptr && faults->node_down_at(pk.source, t)) continue;
      if (pk.source == pk.dest) {
        entered[id] = 1;  // delivered at injection, never queued
        continue;
      }
      const int t_in = injection_tag(pk);
      if (occ[queue_index(pk.source, t_in)] >= queue_capacity)
        continue;  // waits outside the network
      entered[id] = 1;
      pos[id] = pk.source;
      tag[id] = t_in;
      ++occ[queue_index(pk.source, t_in)];
    }
    // Per-step move checks: link uniqueness, single move per packet,
    // adjacency, position continuity. Transmissions are simultaneous, so
    // all departures are applied before any arrival and the queue bound
    // is judged on the end-of-step configuration only.
    step_moves.clear();
    while (cursor < events.size() && events[cursor].step <= t) {
      const TraceEvent& ev = events[cursor++];
      if (ev.step < t) {
        err << "events out of order at step " << ev.step;
        return err.str();
      }
      const auto id = static_cast<std::size_t>(ev.packet);
      if (ev.kind == TraceEventKind::Deliver) {
        if (ev.from != packets[id].dest) {
          err << "packet " << ev.packet << " delivered at " << ev.from
              << " but is destined for " << packets[id].dest;
          return err.str();
        }
        continue;  // queue effects handled with the delivering move below
      }
      step_moves.push_back(Hop{&ev, Dir::North});
    }
    links.next_step(static_cast<std::size_t>(mesh.num_nodes()) * kNumDirs);
    movers.next_step(packets.size());
    bool link_reused = false;
    bool mover_reused = false;
    for (Hop& hop : step_moves) {
      const TraceEvent* ev = hop.ev;
      const auto id = static_cast<std::size_t>(ev->packet);
      bool adjacent = false;
      for (Dir d : kAllDirs) {
        if (mesh.neighbor(ev->from, d) == ev->to) {
          hop.dir = d;
          adjacent = true;
          break;
        }
      }
      if (!adjacent) {
        err << "packet " << ev->packet << " hopped from " << ev->from
            << " to " << ev->to << " (not a link) at step " << t;
        return err.str();
      }
      if (pos[id] != ev->from) {
        err << "packet " << ev->packet << " moved from " << ev->from
            << " at step " << t << " but the replay places it at " << pos[id];
        return err.str();
      }
      link_reused |= !links.insert(static_cast<std::size_t>(ev->from) *
                                       kNumDirs + dir_index(hop.dir));
      mover_reused |= !movers.insert(id);
      --occ[queue_index(ev->from, tag[id])];
    }
    if (link_reused) {
      err << "a directed link carried two packets in step " << t;
      return err.str();
    }
    if (mover_reused) {
      err << "a packet moved twice in step " << t;
      return err.str();
    }
    for (const Hop& hop : step_moves) {
      const TraceEvent* ev = hop.ev;
      const auto id = static_cast<std::size_t>(ev->packet);
      if (deliver_step[id] == t) {
        pos[id] = kInvalidNode;  // delivered on arrival; never queued at to
        continue;
      }
      // Arrival inlink: the queue opposite the travel direction.
      const int arrival = per_inlink ? dir_index(opposite(hop.dir)) : 0;
      pos[id] = ev->to;
      tag[id] = arrival;
      ++occ[queue_index(ev->to, arrival)];
    }
    for (const Hop& hop : step_moves) {
      const TraceEvent* ev = hop.ev;
      for (std::size_t q = 0; q < queues_per_node; ++q) {
        if (occ[queue_index(ev->to, static_cast<int>(q))] >
            queue_capacity) {
          err << "queue bound violated: node " << ev->to << " queue " << q
              << " holds " << occ[queue_index(ev->to, static_cast<int>(q))]
              << " > " << queue_capacity << " after step " << t;
          return err.str();
        }
      }
    }
  }
  return {};
}

}  // namespace mr
