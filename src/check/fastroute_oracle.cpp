#include "check/fastroute_oracle.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "sim/sim.hpp"

namespace mr {

using Kind = FastRouteAlgorithm::Kind;

FastRouteOracle::FastRouteOracle(std::int32_t n,
                                 FastRouteAlgorithm::Options options)
    : schedule_(n, options), stats_(schedule_.segments.size()) {}

void FastRouteOracle::on_prepare(const Sim& e, const StepDigest&) {
  MR_REQUIRE_MSG(e.mesh().width() == schedule_.n &&
                     e.mesh().height() == schedule_.n,
                 "[oracle:fastroute] schedule built for n=" << schedule_.n);
  const std::size_t np = e.num_packets();
  class_.resize(np);
  participates_.assign(np, 0);
  active_.assign(np, 0);
  dest_strip_.assign(np, 0);
  for (std::size_t i = 0; i < np; ++i) {
    const Packet& pk = e.packet(static_cast<PacketId>(i));
    class_[i] = static_cast<std::uint8_t>(fastroute_class(
        e.mesh().coord_of(pk.source), e.mesh().coord_of(pk.dest)));
  }
  count_.assign(static_cast<std::size_t>(e.mesh().num_nodes()), 0);
  current_ = 0;
  enter_segment(e);
}

void FastRouteOracle::on_step(const Sim& e, const StepDigest& d) {
  if (current_ >= schedule_.segments.size()) return;
  const FastRouteAlgorithm::Segment& seg = schedule_.segments[current_];
  MR_REQUIRE_MSG(d.step > seg.start && d.step <= seg.end() &&
                     e.num_packets() == class_.size(),
                 "[oracle:fastroute] must observe every step of the run "
                 "from prepare() (step "
                     << d.step << ")");
  by_packet_.clear();
  for (const MoveRecord& m : d.moves)
    if (class_[m.packet] == seg.cls) by_packet_.push_back(m);
  std::sort(by_packet_.begin(), by_packet_.end(),
            [](const MoveRecord& a, const MoveRecord& b) {
              return a.packet < b.packet;
            });
  for (const MoveRecord& m : by_packet_) replay_move(e, m, d.step);
  if (d.step == seg.end()) {
    check_segment_end(e);
    ++current_;
    enter_segment(e);
  }
}

void FastRouteOracle::replay_move(const Sim& e, const MoveRecord& m, Step t) {
  const FastRouteAlgorithm::Segment& seg = schedule_.segments[current_];
  SegmentStats& st = stats_[current_];
  ++st.moves;
  st.last_move_offset = t - seg.start;
  const std::size_t i = static_cast<std::size_t>(m.packet);
  if (!active_[i]) return;
  const Topology& mesh = e.mesh();
  if (seg.kind == Kind::March) {
    const std::int32_t staging = dest_strip_[i] - 3;
    if (seg.strip_of(seg.canon(mesh.coord_of(m.from))) == staging)
      --count_[m.from];
    if (!m.delivered && seg.strip_of(seg.canon(mesh.coord_of(m.to))) == staging) {
      const std::int32_t staged = ++count_[m.to];
      st.peak_per_node = std::max(st.peak_per_node, staged);
      MR_REQUIRE_MSG(staged <= seg.q,
                     "[oracle:fastroute] March staging capacity q="
                         << seg.q << " exceeded at node " << m.to << " (step "
                         << t << ")");
    }
  } else if (seg.kind == Kind::Balance) {
    --count_[m.from];
    if (!m.delivered)
      st.peak_per_node = std::max(st.peak_per_node, ++count_[m.to]);
  }
}

void FastRouteOracle::enter_segment(const Sim& e) {
  if (current_ >= schedule_.segments.size()) return;
  const FastRouteAlgorithm::Segment& seg = schedule_.segments[current_];
  SegmentStats& st = stats_[current_];
  const Topology& mesh = e.mesh();
  if (seg.kind == Kind::March || seg.kind == Kind::BaseCase) {
    if (seg.kind == Kind::March) std::fill(count_.begin(), count_.end(), 0);
    for (std::size_t i = 0; i < class_.size(); ++i) {
      participates_[i] = 0;
      active_[i] = 0;
      const Packet& pk = e.packet(static_cast<PacketId>(i));
      if (class_[i] != seg.cls || pk.delivered() ||
          pk.location == kInvalidNode)
        continue;
      const Coord loc = seg.canon(mesh.coord_of(pk.location));
      const Coord dst = seg.canon(mesh.coord_of(pk.dest));
      if (seg.kind == Kind::BaseCase) {
        MR_REQUIRE_MSG(dst.col - loc.col <= 2 && dst.row - loc.row <= 2,
                       "[oracle:fastroute] Lemma 18 violated: packet "
                           << i << " too far from destination at base case ("
                           << dst.col - loc.col << "," << dst.row - loc.row
                           << ")");
        participates_[i] = 1;
        active_[i] = 1;
        continue;
      }
      if (!seg.same_tile(loc, dst)) continue;
      participates_[i] = 1;
      dest_strip_[i] = seg.strip_of(dst);
      if (dest_strip_[i] - seg.strip_of(loc) >= 3) {
        active_[i] = 1;
        if (seg.strip_of(loc) == dest_strip_[i] - 3) ++count_[pk.location];
      }
    }
  } else if (seg.kind == Kind::Balance) {
    std::fill(count_.begin(), count_.end(), 0);
    for (std::size_t i = 0; i < class_.size(); ++i) {
      const Packet& pk = e.packet(static_cast<PacketId>(i));
      if (!active_[i] || pk.delivered() || pk.location == kInvalidNode)
        continue;
      st.peak_per_node = std::max(st.peak_per_node, ++count_[pk.location]);
    }
  }
}

void FastRouteOracle::check_segment_end(const Sim& e) const {
  const FastRouteAlgorithm::Segment& seg = schedule_.segments[current_];
  for (std::size_t i = 0; i < class_.size(); ++i) {
    if (class_[i] != seg.cls) continue;
    const Packet& pk = e.packet(static_cast<PacketId>(i));
    const bool gone = pk.delivered() || pk.location == kInvalidNode;
    if (seg.kind == Kind::BaseCase) {
      MR_REQUIRE_MSG(gone || !participates_[i],
                     "[oracle:fastroute] Lemma 32 violated: base case left "
                     "packet "
                         << i << " undelivered (step " << seg.end() << ")");
      continue;
    }
    if (gone) {
      MR_REQUIRE_MSG(!active_[i], "[oracle:fastroute] active packet "
                                      << i << " delivered mid-subphase");
      continue;
    }
    if (!active_[i]) continue;
    const std::int32_t s =
        seg.strip_of(seg.canon(e.mesh().coord_of(pk.location)));
    const std::int32_t ds = dest_strip_[i];
    switch (seg.kind) {
      case Kind::March:
        MR_REQUIRE_MSG(s == ds - 3,
                       "[oracle:fastroute] Lemma 29 violated: active packet "
                           << i << " not in its staging strip after the March "
                           << "(strip " << s << ", staging " << ds - 3 << ")");
        break;
      case Kind::SortSmoothEven:
        MR_REQUIRE_MSG(ds % 2 != 0 || s == ds - 2,
                       "[oracle:fastroute] Lemma 30 violated (even substep): "
                       "packet "
                           << i << " in strip " << s << ", not " << ds - 2);
        break;
      case Kind::SortSmoothOdd:
        MR_REQUIRE_MSG(s == ds - 2,
                       "[oracle:fastroute] Lemma 30 violated (odd substep): "
                       "packet "
                           << i << " in strip " << s << ", not " << ds - 2);
        break;
      case Kind::Balance:
      case Kind::BaseCase:
        break;
    }
  }
  if (seg.kind == Kind::Balance) {
    for (std::size_t u = 0; u < count_.size(); ++u) {
      MR_REQUIRE_MSG(count_[u] <= 2,
                     "[oracle:fastroute] Lemma 24/31 violated: "
                         << count_[u] << " active packets in node " << u
                         << " after Balancing (step " << seg.end() << ")");
    }
  }
}

}  // namespace mr
