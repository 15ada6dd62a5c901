#include "lower_bound/dim_order_construction.hpp"

#include <algorithm>

namespace mr {

namespace {

/// Single exchange rule of the §5 dimension-order construction.
class DimOrderRule : public ExchangeInterceptor<DimOrderRule> {
 public:
  DimOrderRule(const DimOrderConstruction& geo, std::size_t class_count)
      : ExchangeInterceptor(geo.num_classes() * geo.dn()),
        geo_(geo),
        class_count_(class_count) {}

  /// The partner the move's packet must exchange with, or kInvalidPacket.
  PacketId partner_for(const Sim& e, const ScheduledMove& m) const {
    const Coord v = e.mesh().coord_of(m.to);
    if (v.row >= geo_.cn()) return kInvalidPacket;  // sender band only
    const std::int64_t i = v.col - geo_.line(0);
    if (i < 1 || i > geo_.num_classes() || e.step() > i * geo_.dn())
      return kInvalidPacket;
    const std::int64_t j = classify(e, m.packet);
    if (j <= i) return kInvalidPacket;  // own column or unclassed: legal
    return partner(e, m.packet, i);
  }

 private:
  std::int64_t classify(const Sim& e, PacketId p) const {
    if (static_cast<std::size_t>(p) >= class_count_) return 0;
    const Packet& pk = e.packet(p);
    return geo_.classify(e.mesh().coord_of(pk.source),
                         e.mesh().coord_of(pk.dest));
  }

  PacketId partner(const Sim& e, PacketId mover, std::int64_t i) const {
    PacketId unscheduled = kInvalidPacket;
    PacketId scheduled_elsewhere = kInvalidPacket;
    for (std::size_t id = 0; id < class_count_; ++id) {
      const PacketId p = static_cast<PacketId>(id);
      if (p == mover) continue;
      const Packet& pk = e.packet(p);
      if (pk.delivered() || pk.location == kInvalidNode) continue;
      if (classify(e, p) != i) continue;
      const Coord at = e.mesh().coord_of(pk.location);
      // Inside the (i−1)-box only.
      if (at.col > geo_.line(i - 1) || at.row >= geo_.cn()) continue;
      const NodeId target = scheduled_target(p);
      if (target == kInvalidNode) {
        unscheduled = p;
        break;
      }
      if (e.mesh().coord_of(target).col != geo_.line(i) &&
          scheduled_elsewhere == kInvalidPacket) {
        scheduled_elsewhere = p;
      }
    }
    const PacketId best =
        unscheduled != kInvalidPacket ? unscheduled : scheduled_elsewhere;
    MR_REQUIRE_MSG(best != kInvalidPacket,
                   "no eligible partner (dim-order construction) at step "
                       << e.step());
    return best;
  }

  const DimOrderConstruction& geo_;
  std::size_t class_count_;
};

/// Online checker for the §5 dimension-order analogues of Lemmas 1–8:
///  * confinement — during window w, every class j ≥ w+2 packet is still
///    west of the N_{w+1}-column (inside the w-box),
///  * column purity — while class i's window is open, no packet of another
///    class occupies the N_i-column inside the sender band,
///  * escape discipline — at most one class-i packet leaves the i-box per
///    step, never before its window opens.
class DimOrderChecker : public StepObserver {
 public:
  DimOrderChecker(const DimOrderConstruction& geo, std::size_t class_count)
      : geo_(geo),
        class_count_(class_count),
        escapes_(static_cast<std::size_t>(geo.num_classes()) + 1, 0) {}

  void on_step(const Sim& e, const StepDigest& d) override {
    for (const MoveRecord& m : d.moves) check_move(e, m);
    check_step_end(e);
  }

 private:
  void check_move(const Sim& e, const MoveRecord& m) {
    if (static_cast<std::size_t>(m.packet) >= class_count_) return;
    const Packet& pk = e.packet(m.packet);
    const std::int64_t i = geo_.classify(e.mesh().coord_of(pk.source),
                                         e.mesh().coord_of(pk.dest));
    if (i == 0) return;
    const Coord f = e.mesh().coord_of(m.from);
    const Coord t = e.mesh().coord_of(m.to);
    const bool left_box = (f.col <= geo_.line(i) && f.row < geo_.cn()) &&
                          !(t.col <= geo_.line(i) && t.row < geo_.cn());
    if (!left_box) return;
    const Step step = e.step();
    MR_REQUIRE_MSG(step > (i - 1) * geo_.dn(),
                   "dim-order Lemma 1 analogue violated for class " << i);
    if (step <= i * geo_.dn()) {
      MR_REQUIRE_MSG(++escapes_[i] <= 1,
                     "dim-order Lemma 2 analogue violated for class " << i);
    }
  }

  void check_step_end(const Sim& e) {
    const Step t = e.step();
    const Step w = (t - 1) / geo_.dn();
    for (std::size_t id = 0; id < class_count_; ++id) {
      const Packet& pk = e.packet(static_cast<PacketId>(id));
      if (pk.delivered() || pk.location == kInvalidNode) continue;
      const std::int64_t j = geo_.classify(e.mesh().coord_of(pk.source),
                                           e.mesh().coord_of(pk.dest));
      if (j == 0) continue;
      const Coord at = e.mesh().coord_of(pk.location);
      if (at.row >= geo_.cn()) continue;  // turned north: out of the band
      if (j >= w + 2) {
        MR_REQUIRE_MSG(at.col <= geo_.line(w),
                       "dim-order confinement violated: class "
                           << j << " east of the " << w << "-box at step "
                           << t);
      }
      // Column purity: inside the band, the N_i-column may only hold
      // class-i packets while i's window is open.
      const std::int64_t col_class = at.col - geo_.line(0);
      if (col_class >= 1 && col_class <= geo_.num_classes() &&
          t <= col_class * geo_.dn()) {
        MR_REQUIRE_MSG(j == col_class,
                       "dim-order column purity violated at step " << t);
      }
    }
    std::fill(escapes_.begin(), escapes_.end(), 0);
  }

  const DimOrderConstruction& geo_;
  std::size_t class_count_;
  std::vector<std::int64_t> escapes_;
};

}  // namespace

DimOrderConstruction::DimOrderConstruction(const Mesh& mesh,
                                           const DimOrderLbParams& params)
    : LowerBoundConstruction(mesh, params) {}

std::int64_t DimOrderConstruction::classify(Coord source, Coord dest) const {
  if (source.row >= cn_ || source.col > line(1)) return 0;  // not a sender
  if (dest.row < cn_) return 0;
  const std::int64_t i = dest.col - line(0);
  if (i < 1 || i > classes_) return 0;
  return i;
}

Workload DimOrderConstruction::placement() const {
  Workload w;
  w.reserve(static_cast<std::size_t>(p_ * classes_));
  std::vector<std::int64_t> dest_count(static_cast<std::size_t>(classes_) + 1,
                                       0);
  auto emit = [&](Coord at, std::int64_t i) {
    const std::int64_t j = dest_count[i]++;
    const Coord dest{line(i), static_cast<std::int32_t>(n_ - 1 - j)};
    MR_REQUIRE_MSG(dest.row >= cn_, "destination capacity exhausted");
    w.push_back(Demand{mesh_.id_of(at), mesh_.id_of(dest), 0});
  };

  // Only N_1-packets occupy the N_1-column inside the sender band.
  for (std::int32_t r = 0; r < cn_; ++r) emit(Coord{line(1), r}, 1);

  // Everything else lives strictly west of the N_1-column.
  std::vector<std::int64_t> slots;
  slots.reserve(static_cast<std::size_t>(p_ * classes_));
  for (std::int64_t j = cn_; j < p_; ++j) slots.push_back(1);
  for (std::int64_t i = 2; i <= classes_; ++i)
    for (std::int64_t j = 0; j < p_; ++j) slots.push_back(i);
  MR_REQUIRE(slots.size() <=
             static_cast<std::size_t>(line(1)) * static_cast<std::size_t>(cn_));
  std::size_t next = 0;
  for (std::int32_t r = 0; r < cn_ && next < slots.size(); ++r)
    for (std::int32_t c = 0; c < line(1) && next < slots.size(); ++c)
      emit(Coord{c, r}, slots[next++]);
  MR_REQUIRE(next == slots.size());
  return w;
}

DimOrderConstruction::RunResult DimOrderConstruction::construct(
    const std::string& algorithm, int k,
    std::vector<std::uint64_t>* stepwise_nodest) const {
  const Workload w = placement();
  DimOrderRule exchanger(*this, w.size());
  DimOrderChecker checker(*this, w.size());
  return drive(algorithm, k, w, exchanger, {&checker}, stepwise_nodest);
}

DimOrderConstruction::ReplayResult DimOrderConstruction::verify_replay(
    const std::string& algorithm, int k, Step replay_budget) const {
  ReplayResult out;
  std::vector<std::uint64_t> stepwise_nodest;
  out.construction = construct(algorithm, k, &stepwise_nodest);
  replay(algorithm, k, out.construction, stepwise_nodest, replay_budget, out);
  return out;
}

}  // namespace mr
