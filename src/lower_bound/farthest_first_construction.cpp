#include "lower_bound/farthest_first_construction.hpp"

#include <algorithm>

#include "routing/registry.hpp"

namespace mr {

namespace {

class FarthestFirstInterceptor : public StepInterceptor {
 public:
  FarthestFirstInterceptor(const FarthestFirstConstruction& geo,
                           std::int32_t cn, std::int32_t dn,
                           std::int64_t classes, std::size_t class_count)
      : geo_(geo), cn_(cn), dn_(dn), classes_(classes),
        class_count_(class_count) {}

  std::size_t exchanges() const { return exchanges_; }

  void after_schedule(Sim& e,
                      std::span<const ScheduledMove> moves) override {
    const Step t = e.step();
    scheduled_target_.assign(e.num_packets(), kInvalidNode);
    for (const ScheduledMove& m : moves) scheduled_target_[m.packet] = m.to;

    bool changed = true;
    std::size_t rounds = 0;
    while (changed) {
      changed = false;
      MR_REQUIRE(++rounds <= moves.size() + 4);
      for (const ScheduledMove& m : moves) {
        const Coord from = e.mesh().coord_of(m.from);
        const Coord v = e.mesh().coord_of(m.to);
        if (v.row >= cn_) continue;
        if (v.col == from.col) continue;  // vertical move inside a column
        const std::int64_t j = classify(e, m.packet);
        if (j < 2) continue;
        if (v.col != geo_.line(j)) continue;  // not entering its own column
        // Rule window: exists i ≥ 1, i < j with t ≤ i·dn ⟺ t ≤ (j−1)·dn.
        if (t > (j - 1) * dn_) continue;
        exchange(e, m.packet, j);
        changed = true;
      }
    }
  }

 private:
  std::int64_t classify(const Sim& e, PacketId p) const {
    if (static_cast<std::size_t>(p) >= class_count_) return 0;
    const Packet& pk = e.packet(p);
    return geo_.classify(e.mesh().coord_of(pk.source),
                         e.mesh().coord_of(pk.dest));
  }

  void exchange(Sim& e, PacketId mover, std::int64_t j) {
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
      if (at.col > geo_.line(j + 1) || at.row >= cn_) continue;
      const NodeId target = scheduled_target_[p];
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
    e.exchange_destinations(mover, best);
    ++exchanges_;
  }

  const FarthestFirstConstruction& geo_;
  std::int32_t cn_;
  std::int32_t dn_;
  std::int64_t classes_;
  std::size_t class_count_;
  std::size_t exchanges_ = 0;
  std::vector<NodeId> scheduled_target_;
};

/// Escape discipline for the farthest-first construction: while class i's
/// exchange window is open (t ≤ (i−1)·dn... precisely, while rule coverage
/// lasts), class-i packets may leave the i-box (west of and including
/// column n−i, below row cn) only through the top of their own column, at
/// most one per step.
class FarthestFirstChecker : public Observer {
 public:
  FarthestFirstChecker(const FarthestFirstConstruction& geo, std::int32_t cn,
                       std::int32_t dn, std::size_t class_count)
      : geo_(geo), cn_(cn), dn_(dn), class_count_(class_count) {}

  void on_move(const Sim& e, const Packet& pk, NodeId from,
               NodeId to) override {
    if (static_cast<std::size_t>(pk.id) >= class_count_) return;
    const std::int64_t i = geo_.classify(e.mesh().coord_of(pk.source),
                                         e.mesh().coord_of(pk.dest));
    if (i == 0) return;
    const Coord f = e.mesh().coord_of(from);
    const Coord t = e.mesh().coord_of(to);
    const bool in_box_f = f.col <= geo_.line(i) && f.row < cn_;
    const bool in_box_t = t.col <= geo_.line(i) && t.row < cn_;
    if (!in_box_f || in_box_t) return;
    // The only exit is northward out of the own column (dimension-order
    // paths never cross the N_i-column eastward for an N_i-packet).
    MR_REQUIRE_MSG(f.col == geo_.line(i) && t.row == cn_,
                   "farthest-first construction: class "
                       << i << " left its box sideways at step " << e.step());
    if (e.step() <= (i - 1) * dn_) ++early_escapes_;
  }

  /// Escapes that happened while some exchange rule still covered the
  /// class (informational: the §5 sketch tolerates these only via the
  /// exchange rule itself).
  std::int64_t early_escapes() const { return early_escapes_; }

 private:
  const FarthestFirstConstruction& geo_;
  std::int32_t cn_;
  std::int32_t dn_;
  std::size_t class_count_;
  std::int64_t early_escapes_ = 0;
};

/// Checks the per-row ordering invariant: within each sender row, for
/// j > i, no N_j-packet lies strictly east of any N_i-packet.
bool row_order_holds(const Sim& e, const FarthestFirstConstruction& geo,
                     std::int32_t cn, std::size_t class_count) {
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

}  // namespace

FarthestFirstConstruction::FarthestFirstConstruction(
    const Mesh& mesh, const FarthestFirstLbParams& params)
    : mesh_(mesh),
      n_(params.n),
      k_(params.k),
      cn_(params.cn),
      dn_(params.dn),
      p_(params.p),
      classes_(params.classes),
      certified_(params.certified_steps) {
  MR_REQUIRE_MSG(params.valid, "farthest_first_lb_params invalid");
  MR_REQUIRE(mesh_.width() >= n_ && mesh_.height() >= n_);
}

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

FarthestFirstConstruction::RunResult
FarthestFirstConstruction::run_construction(const std::string& algorithm,
                                            int k) {
  return construct(algorithm, k, nullptr);
}

FarthestFirstConstruction::RunResult FarthestFirstConstruction::construct(
    const std::string& algorithm, int k,
    std::vector<std::uint64_t>* stepwise_nodest) {
  auto algo = make_algorithm(algorithm);
  const int per_node_capacity =
      algo->queue_layout() == QueueLayout::PerInlink ? 4 * k : k;
  MR_REQUIRE_MSG(per_node_capacity <= k_,
                 "construction sized for capacity " << k_);
  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = 0;
  Engine engine(mesh_, config, *algo);
  const Workload w = placement();
  for (const Demand& d : w) engine.add_packet(d.source, d.dest, d.injected_at);

  FarthestFirstInterceptor interceptor(*this, cn_, dn_, classes_, w.size());
  engine.set_interceptor(&interceptor);
  FarthestFirstChecker checker(*this, cn_, dn_, w.size());
  engine.add_observer(&checker);
  engine.prepare();

  RunResult result;
  if (stepwise_nodest != nullptr)
    stepwise_nodest->reserve(static_cast<std::size_t>(certified_));
  for (Step t = 1; t <= certified_; ++t) {
    MR_REQUIRE_MSG(engine.step_once(),
                   "network drained before the certified bound");
    if (stepwise_nodest != nullptr)
      stepwise_nodest->push_back(engine.fingerprint(false));
    if (result.row_order_ok && t % 16 == 0)
      result.row_order_ok = row_order_holds(engine, *this, cn_, w.size());
  }
  result.row_order_ok =
      result.row_order_ok && row_order_holds(engine, *this, cn_, w.size());
  result.steps = certified_;
  result.exchanges = interceptor.exchanges();
  result.undelivered = engine.num_packets() - engine.delivered_count();
  result.final_fingerprint = engine.fingerprint(true);
  result.constructed.reserve(engine.num_packets());
  for (const Packet& pk : engine.all_packets())
    result.constructed.push_back(Demand{pk.source, pk.dest, pk.injected_at});
  return result;
}

FarthestFirstConstruction::ReplayResult
FarthestFirstConstruction::verify_replay(const std::string& algorithm, int k,
                                         Step replay_budget) {
  ReplayResult out;
  std::vector<std::uint64_t> stepwise_nodest;
  out.construction = construct(algorithm, k, &stepwise_nodest);

  auto algo = make_algorithm(algorithm);
  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = 0;
  Engine replay(mesh_, config, *algo);
  for (const Demand& d : out.construction.constructed)
    replay.add_packet(d.source, d.dest, d.injected_at);
  replay.prepare();

  for (Step t = 1; t <= certified_; ++t) {
    MR_REQUIRE(replay.step_once());
    if (replay.fingerprint(false) !=
        stepwise_nodest[static_cast<std::size_t>(t - 1)]) {
      out.stepwise_match = false;
      if (out.first_mismatch < 0) out.first_mismatch = t;
    }
  }
  out.final_match =
      replay.fingerprint(true) == out.construction.final_fingerprint;
  out.undelivered_at_certified =
      replay.num_packets() - replay.delivered_count();

  const Step budget = replay_budget > 0
                          ? replay_budget
                          : certified_ + 16LL * n_ * n_ / std::max(1, k) +
                                64LL * n_;
  out.replay_total_steps = replay.run(budget);
  out.replay_all_delivered = replay.all_delivered();
  return out;
}

}  // namespace mr
