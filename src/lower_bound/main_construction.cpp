#include "lower_bound/main_construction.hpp"

#include <unordered_set>

#include "check/oracles.hpp"
#include "core/rng.hpp"

namespace mr {

namespace {

/// Exchange rules EX1–EX4 (§3 step 3), applied between scheduling and
/// acceptance.
class MainExchangeRule : public ExchangeInterceptor<MainExchangeRule> {
 public:
  MainExchangeRule(const MainGeometry& geometry, std::int32_t dn,
                   std::size_t class_packet_count)
      : ExchangeInterceptor(geometry.classes() * dn),
        geo_(geometry),
        dn_(dn),
        class_count_(class_packet_count) {}

  /// The partner the move's packet must exchange with, or kInvalidPacket.
  PacketId partner_for(const Sim& e, const ScheduledMove& m) const {
    const Step t = e.step();
    const Coord v = e.mesh().coord_of(m.to);
    if (v.col >= geo_.size() || v.row >= geo_.size()) return kInvalidPacket;
    const PacketClass cls = classify(e, m.packet);
    if (cls.type == ClassType::None) return kInvalidPacket;

    if (v.row < v.col) {
      // Entering the N_i-column south of the E_i-row, i = column index − γ.
      const std::int64_t i = v.col - geo_.line(0);
      if (i < 1 || i > geo_.classes() || t > i * dn_) return kInvalidPacket;
      const bool ex2 = cls.type == ClassType::N && cls.i > i;   // EX2
      const bool ex3 = cls.type == ClassType::E && cls.i >= i;  // EX3
      if (cls.type == ClassType::N && cls.i < i) {
        // An N_j-packet (j < i) can never be east of its own column.
        MR_REQUIRE_MSG(false, "N_" << cls.i << " packet east of its column");
      }
      if (!ex2 && !ex3) return kInvalidPacket;
      return partner(e, m.packet, ClassType::N, i, /*line_is_column=*/true);
    }
    if (v.col < v.row) {
      // Entering the E_i-row west of the N_i-column.
      const std::int64_t i = v.row - geo_.line(0);
      if (i < 1 || i > geo_.classes() || t > i * dn_) return kInvalidPacket;
      const bool ex1 = cls.type == ClassType::E && cls.i > i;   // EX1
      const bool ex4 = cls.type == ClassType::N && cls.i >= i;  // EX4
      if (cls.type == ClassType::E && cls.i < i) {
        MR_REQUIRE_MSG(false, "E_" << cls.i << " packet north of its row");
      }
      if (!ex1 && !ex4) return kInvalidPacket;
      return partner(e, m.packet, ClassType::E, i, /*line_is_column=*/false);
    }
    return kInvalidPacket;  // the i-box corner is not covered by any rule
  }

 private:
  PacketClass classify(const Sim& e, PacketId p) const {
    if (static_cast<std::size_t>(p) >= class_count_) return PacketClass{};
    const Packet& pk = e.packet(p);
    return geo_.classify(e.mesh().coord_of(pk.source),
                         e.mesh().coord_of(pk.dest));
  }

  PacketId partner(const Sim& e, PacketId mover, ClassType want,
                   std::int64_t i, bool line_is_column) const {
    // Partner: a packet of class (want, i) inside the (i−1)-box that is not
    // scheduled to enter the N_i-column / E_i-row (Lemmas 3/4 guarantee one
    // exists). Prefer partners with no scheduled move at all — this cannot
    // hurt eligibility and avoids most fix-point cascades.
    PacketId first_unscheduled = kInvalidPacket;
    PacketId first_scheduled_elsewhere = kInvalidPacket;
    for (std::size_t id = 0; id < class_count_; ++id) {
      const PacketId p = static_cast<PacketId>(id);
      if (p == mover) continue;
      const Packet& pk = e.packet(p);
      if (pk.delivered()) continue;
      const PacketClass cls = classify(e, p);
      if (cls.type != want || cls.i != i) continue;
      // A packet still waiting for injection (h > k, §5 dynamic setting)
      // sits at its source; it is a perfectly good exchange partner since
      // injection timing never depends on the destination address.
      const NodeId at =
          pk.location != kInvalidNode ? pk.location : pk.source;
      if (!geo_.in_box(e.mesh().coord_of(at), i - 1)) continue;
      const NodeId target = scheduled_target(p);
      if (target == kInvalidNode) {
        first_unscheduled = p;
        break;  // ids ascend, so this is the preferred partner
      }
      const Coord tc = e.mesh().coord_of(target);
      const bool enters_line = line_is_column ? tc.col == geo_.line(i)
                                              : tc.row == geo_.line(i);
      if (!enters_line && first_scheduled_elsewhere == kInvalidPacket)
        first_scheduled_elsewhere = p;
    }
    const PacketId best = first_unscheduled != kInvalidPacket
                              ? first_unscheduled
                              : first_scheduled_elsewhere;
    MR_REQUIRE_MSG(best != kInvalidPacket,
                   "Lemma 3/4 violated: no eligible exchange partner for "
                   "class "
                       << i << " at step " << e.step());
    return best;
  }

  const MainGeometry& geo_;
  std::int32_t dn_;
  std::size_t class_count_;
};

}  // namespace

MainConstruction::MainConstruction(const Mesh& mesh,
                                   const MainLbParams& params,
                                   MainConstructionOptions options)
    : MainConstruction(mesh, params, 1, options) {}

MainConstruction::MainConstruction(const Mesh& mesh, const HhLbParams& params,
                                   MainConstructionOptions options)
    : MainConstruction(mesh, params, params.h, options) {
  MR_REQUIRE_MSG(!options_.full_permutation,
                 "full-permutation filler is only defined for h = 1");
}

template <typename Params>
MainConstruction::MainConstruction(const Mesh& mesh, const Params& params,
                                   int h, MainConstructionOptions options)
    : LowerBoundConstruction(mesh, params),
      h_(h),
      options_(options),
      geometry_(params.n, params.cn, params.classes) {
  MR_REQUIRE(cn_ >= 2);  // the geometry needs a non-degenerate 0-box
}

Workload MainConstruction::placement() const {
  const std::int64_t gamma = geometry_.line(0);
  Workload w;
  w.reserve(static_cast<std::size_t>(2 * p_ * classes_));

  // Per-class destination counters: the j-th packet of class (N,i) goes to
  // (N_i-column, row size−1−⌊j/h⌋); rows are reused at most h times, all
  // strictly north of the E_i-row (§4.3 constraint 1 guarantees room).
  std::vector<std::int64_t> n_count(static_cast<std::size_t>(classes_) + 1, 0);
  std::vector<std::int64_t> e_count(static_cast<std::size_t>(classes_) + 1, 0);
  auto emit = [&](Coord at, PacketClass cls) {
    Coord dest;
    if (cls.type == ClassType::N) {
      const std::int64_t j = n_count[cls.i]++;
      dest = Coord{geometry_.line(cls.i),
                   static_cast<std::int32_t>(n_ - 1 - j / h_)};
      MR_REQUIRE_MSG(dest.row > geometry_.line(cls.i),
                     "N-destination capacity exhausted");
    } else {
      const std::int64_t j = e_count[cls.i]++;
      dest = Coord{static_cast<std::int32_t>(n_ - 1 - j / h_),
                   geometry_.line(cls.i)};
      MR_REQUIRE_MSG(dest.col > geometry_.line(cls.i),
                     "E-destination capacity exhausted");
    }
    w.push_back(Demand{mesh_.id_of(at), mesh_.id_of(dest), 0});
  };

  // §3 step 1 edge constraints: only N_1-packets on the N_1-column at or
  // south of the E_1-row; only E_1-packets on the E_1-row west of the
  // N_1-column.
  const auto line1 = geometry_.line(1);  // = cn − 1
  MR_REQUIRE(p_ >= static_cast<std::int64_t>(h_) * cn_);
  for (std::int32_t r = 0; r <= line1; ++r)
    for (int c = 0; c < h_; ++c)
      emit(Coord{line1, r}, PacketClass{ClassType::N, 1});
  for (std::int32_t c = 0; c < line1; ++c)
    for (int q = 0; q < h_; ++q)
      emit(Coord{c, line1}, PacketClass{ClassType::E, 1});

  // Remaining class slots all live inside the 0-box.
  std::vector<PacketClass> slots;
  slots.reserve(static_cast<std::size_t>(2 * p_ * classes_));
  const std::int64_t n1_rest = p_ - static_cast<std::int64_t>(h_) * cn_;
  const std::int64_t e1_rest = p_ - static_cast<std::int64_t>(h_) * (cn_ - 1);
  for (std::int64_t j = 0; j < n1_rest; ++j)
    slots.push_back(PacketClass{ClassType::N, 1});
  for (std::int64_t j = 0; j < e1_rest; ++j)
    slots.push_back(PacketClass{ClassType::E, 1});
  for (std::int64_t i = 2; i <= classes_; ++i) {
    for (std::int64_t j = 0; j < p_; ++j)
      slots.push_back(PacketClass{ClassType::N, i});
    for (std::int64_t j = 0; j < p_; ++j)
      slots.push_back(PacketClass{ClassType::E, i});
  }
  if (options_.placement_seed != 0) {
    Rng rng(options_.placement_seed);
    shuffle(slots, rng);
  }
  MR_REQUIRE_MSG(
      slots.size() <= static_cast<std::size_t>(h_) *
                          static_cast<std::size_t>(gamma + 1) *
                          static_cast<std::size_t>(gamma + 1),
      "0-box capacity exceeded");
  std::size_t next = 0;
  for (std::int32_t r = 0; r <= gamma && next < slots.size(); ++r)
    for (std::int32_t c = 0; c <= gamma && next < slots.size(); ++c)
      for (int q = 0; q < h_ && next < slots.size(); ++q)
        emit(Coord{c, r}, slots[next++]);
  MR_REQUIRE(next == slots.size());

  if (options_.full_permutation) {
    MR_REQUIRE_MSG(mesh_.width() == n_ && mesh_.height() == n_,
                   "full permutation filler needs mesh == construction size");
    std::unordered_set<NodeId> used_sources, used_dests;
    for (const Demand& d : w) {
      used_sources.insert(d.source);
      used_dests.insert(d.dest);
    }
    std::vector<NodeId> sources, dests;
    for (NodeId u = 0; u < mesh_.num_nodes(); ++u) {
      if (!used_sources.count(u)) sources.push_back(u);
      if (!used_dests.count(u)) dests.push_back(u);
    }
    MR_REQUIRE(sources.size() == dests.size());
    // Pair greedily; a filler sourced inside the 1-box must not acquire a
    // class-qualifying destination (it would perturb the packet counting
    // of Lemmas 3/4).
    std::vector<bool> taken(dests.size(), false);
    for (NodeId src : sources) {
      const Coord sc = mesh_.coord_of(src);
      bool placed = false;
      for (std::size_t j = 0; j < dests.size(); ++j) {
        if (taken[j]) continue;
        const Coord dc = mesh_.coord_of(dests[j]);
        if (geometry_.classify(sc, dc).type != ClassType::None) continue;
        taken[j] = true;
        w.push_back(Demand{src, dests[j], 0});
        placed = true;
        break;
      }
      MR_REQUIRE_MSG(placed, "filler pairing failed for source " << src);
    }
  }
  return w;
}

MainConstruction::RunResult MainConstruction::run_construction(
    const std::string& algorithm, int k, StepObserver* extra_observer) const {
  return construct(algorithm, k, extra_observer, nullptr);
}

MainConstruction::RunResult MainConstruction::construct(
    const std::string& algorithm, int k, StepObserver* extra_observer,
    std::vector<std::uint64_t>* stepwise_nodest) const {
  const std::size_t class_count = static_cast<std::size_t>(2 * p_ * classes_);
  MainExchangeRule exchanger(geometry_, dn_, class_count);
  // Lemmas 1-8 are checked by the shared box-escape oracle from the
  // differential-verification subsystem (check/oracles.hpp).
  BoxEscapeOracle checker(geometry_, dn_, class_count);
  std::int64_t in_box = 0;
  RunResult result{drive(algorithm, k, placement(), exchanger,
                         {&checker, extra_observer}, stepwise_nodest,
                         [&](const Sim& e) { in_box = last_class_in_box(e); })};
  result.last_class_in_box = in_box;
  result.max_escapes_per_step = checker.max_escapes_per_step();
  return result;
}

std::int64_t MainConstruction::last_class_in_box(const Sim& e) const {
  const std::size_t class_count = static_cast<std::size_t>(2 * p_ * classes_);
  std::int64_t count = 0;
  for (std::size_t id = 0; id < class_count; ++id) {
    const Packet& pk = e.packet(static_cast<PacketId>(id));
    if (pk.delivered()) continue;
    const NodeId at = pk.location != kInvalidNode ? pk.location : pk.source;
    const PacketClass cls = geometry_.classify(mesh_.coord_of(pk.source),
                                               mesh_.coord_of(pk.dest));
    if (cls.type != ClassType::None && cls.i == classes_ &&
        geometry_.in_box(mesh_.coord_of(at), classes_)) {
      ++count;
    }
  }
  return count;
}

MainConstruction::ReplayResult MainConstruction::verify_replay(
    const std::string& algorithm, int k, Step replay_budget) const {
  ReplayResult out;
  std::vector<std::uint64_t> stepwise_nodest;
  out.construction = construct(algorithm, k, nullptr, &stepwise_nodest);
  replay(algorithm, k, out.construction, stepwise_nodest, replay_budget, out);
  return out;
}

}  // namespace mr
