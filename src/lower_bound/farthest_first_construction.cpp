#include "lower_bound/farthest_first_construction.hpp"

#include <algorithm>

namespace mr {

namespace {

/// The westernmost-partner exchange rule of the farthest-first
/// construction.
class FarthestFirstRule : public ExchangeInterceptor<FarthestFirstRule> {
 public:
  FarthestFirstRule(const FarthestFirstConstruction& geo,
                    std::size_t class_count)
      : ExchangeInterceptor((geo.num_classes() - 1) * geo.dn()),
        geo_(geo),
        class_count_(class_count) {}

  /// The partner the move's packet must exchange with, or kInvalidPacket.
  PacketId partner_for(const Sim& e, const ScheduledMove& m) const {
    const Coord from = e.mesh().coord_of(m.from);
    const Coord v = e.mesh().coord_of(m.to);
    if (v.row >= geo_.cn()) return kInvalidPacket;
    if (v.col == from.col) return kInvalidPacket;  // vertical, in a column
    const std::int64_t j = classify(e, m.packet);
    if (j < 2) return kInvalidPacket;
    if (v.col != geo_.line(j)) return kInvalidPacket;  // not its own column
    // Rule window: exists i ≥ 1, i < j with t ≤ i·dn ⟺ t ≤ (j−1)·dn.
    if (e.step() > (j - 1) * geo_.dn()) return kInvalidPacket;
    return partner(e, m.packet, j);
  }

 private:
  std::int64_t classify(const Sim& e, PacketId p) const {
    if (static_cast<std::size_t>(p) >= class_count_) return 0;
    const Packet& pk = e.packet(p);
    return geo_.classify(e.mesh().coord_of(pk.source),
                         e.mesh().coord_of(pk.dest));
  }

  PacketId partner(const Sim& e, PacketId mover, std::int64_t j) const {
    // Partner: westernmost-in-its-row N_{j−1}-packet inside the (j+1)-box
    // (columns ≤ n−j−1) that is not scheduled to enter the N_j-column.
    PacketId best = kInvalidPacket;
    Coord best_at{};
    for (std::size_t id = 0; id < class_count_; ++id) {
      const PacketId p = static_cast<PacketId>(id);
      if (p == mover) continue;
      const Packet& pk = e.packet(p);
      if (pk.delivered() || pk.location == kInvalidNode) continue;
      if (classify(e, p) != j - 1) continue;
      const Coord at = e.mesh().coord_of(pk.location);
      if (at.col > geo_.line(j + 1) || at.row >= geo_.cn()) continue;
      const NodeId target = scheduled_target(p);
      if (target != kInvalidNode &&
          e.mesh().coord_of(target).col == geo_.line(j)) {
        continue;
      }
      if (best == kInvalidPacket || at.col < best_at.col ||
          (at.col == best_at.col && at.row < best_at.row)) {
        best = p;
        best_at = at;
      }
    }
    MR_REQUIRE_MSG(best != kInvalidPacket,
                   "no eligible partner (farthest-first construction) at step "
                       << e.step() << " for class " << j);
    return best;
  }

  const FarthestFirstConstruction& geo_;
  std::size_t class_count_;
};

/// Checks the per-row ordering invariant: within each sender row, for
/// j > i, no N_j-packet lies strictly east of any N_i-packet.
bool row_order_holds(const Sim& e, const FarthestFirstConstruction& geo,
                     std::size_t class_count) {
  const std::int32_t cn = geo.cn();
  const std::int32_t width = e.mesh().width();
  // per row: min col per class and max col per class, then check chain.
  std::vector<std::vector<std::pair<std::int64_t, std::int32_t>>> rows(
      static_cast<std::size_t>(cn));
  for (std::size_t id = 0; id < class_count; ++id) {
    const Packet& pk = e.packet(static_cast<PacketId>(id));
    if (pk.delivered() || pk.location == kInvalidNode) continue;
    const Coord at = e.mesh().coord_of(pk.location);
    if (at.row >= cn) continue;
    const std::int64_t cls = geo.classify(e.mesh().coord_of(pk.source),
                                          e.mesh().coord_of(pk.dest));
    if (cls == 0) continue;
    // A packet already inside its own destination column has left the row
    // structure (it only moves north from here).
    if (at.col == geo.line(cls)) continue;
    rows[static_cast<std::size_t>(at.row)].push_back({cls, at.col});
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    // For ascending class, columns must be non-increasing *across classes*:
    // max col of class j ≤ min col of any class i < j.
    std::int32_t min_col_so_far = width;
    std::int64_t current_class = 0;
    std::int32_t current_max = 0;
    std::int32_t current_min = width;
    auto flush = [&]() {
      if (current_class == 0) return true;
      if (current_max > min_col_so_far) return false;
      min_col_so_far = std::min(min_col_so_far, current_min);
      return true;
    };
    for (const auto& [cls, col] : row) {
      if (cls != current_class) {
        if (!flush()) return false;
        current_class = cls;
        current_max = col;
        current_min = col;
      } else {
        current_max = std::max(current_max, col);
        current_min = std::min(current_min, col);
      }
    }
    if (!flush()) return false;
  }
  return true;
}

/// Online checker of the farthest-first construction.
///  * Escape discipline: class-i packets may leave the i-box (west of and
///    including column n−i, below row cn) only through the top of their
///    own column.
///  * Row order: row_order_holds, sampled every 16 steps and at the
///    certified step (a whole-band scan, too costly for every step).
class FarthestFirstChecker : public StepObserver {
 public:
  FarthestFirstChecker(const FarthestFirstConstruction& geo,
                       std::size_t class_count)
      : geo_(geo), class_count_(class_count) {}

  bool row_order_ok() const { return row_order_ok_; }

  void on_step(const Sim& e, const StepDigest& d) override {
    for (const MoveRecord& m : d.moves) check_move(e, m);
    const Step t = e.step();
    if (row_order_ok_ && (t % 16 == 0 || t == geo_.certified_steps()))
      row_order_ok_ = row_order_holds(e, geo_, class_count_);
  }

 private:
  void check_move(const Sim& e, const MoveRecord& m) const {
    if (static_cast<std::size_t>(m.packet) >= class_count_) return;
    const Packet& pk = e.packet(m.packet);
    const std::int64_t i = geo_.classify(e.mesh().coord_of(pk.source),
                                         e.mesh().coord_of(pk.dest));
    if (i == 0) return;
    const Coord f = e.mesh().coord_of(m.from);
    const Coord t = e.mesh().coord_of(m.to);
    const bool in_box_f = f.col <= geo_.line(i) && f.row < geo_.cn();
    const bool in_box_t = t.col <= geo_.line(i) && t.row < geo_.cn();
    if (!in_box_f || in_box_t) return;
    // The only exit is northward out of the own column (dimension-order
    // paths never cross the N_i-column eastward for an N_i-packet).
    MR_REQUIRE_MSG(f.col == geo_.line(i) && t.row == geo_.cn(),
                   "farthest-first construction: class "
                       << i << " left its box sideways at step " << e.step());
  }

  const FarthestFirstConstruction& geo_;
  std::size_t class_count_;
  bool row_order_ok_ = true;
};

}  // namespace

FarthestFirstConstruction::FarthestFirstConstruction(
    const Mesh& mesh, const FarthestFirstLbParams& params)
    : LowerBoundConstruction(mesh, params) {}

std::int64_t FarthestFirstConstruction::classify(Coord source,
                                                 Coord dest) const {
  if (source.row >= cn_) return 0;
  if (dest.row < cn_) return 0;
  const std::int64_t i = n_ - dest.col;
  if (i < 1 || i > classes_) return 0;
  return i;
}

Workload FarthestFirstConstruction::placement() const {
  // Within every row, class indices never increase from west to east and
  // no N_i-packet (i ≥ 2) starts in its own column. We fill each row from
  // the east with class 1, then class 2, ... splitting each class's p
  // packets as evenly as possible across the cn rows.
  Workload w;
  w.reserve(static_cast<std::size_t>(p_ * classes_));
  std::vector<std::int64_t> dest_count(static_cast<std::size_t>(classes_) + 1,
                                       0);
  auto emit = [&](Coord at, std::int64_t i) {
    const std::int64_t jd = dest_count[i]++;
    const Coord dest{line(i), static_cast<std::int32_t>(n_ - 1 - jd)};
    MR_REQUIRE_MSG(dest.row >= cn_, "destination capacity exhausted");
    w.push_back(Demand{mesh_.id_of(at), mesh_.id_of(dest), 0});
  };
  // Column-major snake from the east: placement index m goes to
  // (col n−1−⌊m/cn⌋, row m mod cn), classes in ascending order. Within any
  // row, eastern packets then have lower-or-equal class (the ordering
  // invariant), and since p ≥ 3cn, class i ≥ 2 starts at least i columns
  // west of the east edge, i.e. strictly west of its own column n−i.
  std::int64_t m = 0;
  for (std::int64_t i = 1; i <= classes_; ++i) {
    for (std::int64_t q = 0; q < p_; ++q, ++m) {
      const Coord at{static_cast<std::int32_t>(n_ - 1 - m / cn_),
                     static_cast<std::int32_t>(m % cn_)};
      MR_REQUIRE_MSG(at.col >= 0, "sender capacity exhausted");
      MR_REQUIRE_MSG(i == 1 || at.col < line(i),
                     "class packet placed at/east of its own column");
      emit(at, i);
    }
  }
  return w;
}

FarthestFirstConstruction::RunResult FarthestFirstConstruction::construct(
    const std::string& algorithm, int k,
    std::vector<std::uint64_t>* stepwise_nodest) const {
  const Workload w = placement();
  FarthestFirstRule exchanger(*this, w.size());
  FarthestFirstChecker checker(*this, w.size());
  RunResult result{drive(algorithm, k, w, exchanger, {&checker},
                         stepwise_nodest)};
  result.row_order_ok = checker.row_order_ok();
  return result;
}

FarthestFirstConstruction::ReplayResult
FarthestFirstConstruction::verify_replay(const std::string& algorithm, int k,
                                         Step replay_budget) const {
  ReplayResult out;
  std::vector<std::uint64_t> stepwise_nodest;
  out.construction = construct(algorithm, k, &stepwise_nodest);
  replay(algorithm, k, out.construction, stepwise_nodest, replay_budget, out);
  return out;
}

}  // namespace mr
