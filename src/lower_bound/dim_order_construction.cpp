#include "lower_bound/dim_order_construction.hpp"

#include "routing/registry.hpp"

namespace mr {

namespace {

/// Single exchange rule of the §5 dimension-order construction.
class DimOrderInterceptor : public StepInterceptor {
 public:
  DimOrderInterceptor(const DimOrderConstruction& geo, std::int32_t cn,
                      std::int32_t dn, std::int64_t classes,
                      std::size_t class_count)
      : geo_(geo), cn_(cn), dn_(dn), classes_(classes),
        class_count_(class_count) {}

  std::size_t exchanges() const { return exchanges_; }

  void after_schedule(Sim& e,
                      std::span<const ScheduledMove> moves) override {
    const Step t = e.step();
    if (t > classes_ * dn_) return;
    scheduled_target_.assign(e.num_packets(), kInvalidNode);
    for (const ScheduledMove& m : moves) scheduled_target_[m.packet] = m.to;

    bool changed = true;
    std::size_t rounds = 0;
    while (changed) {
      changed = false;
      MR_REQUIRE(++rounds <= moves.size() + 4);
      for (const ScheduledMove& m : moves) {
        const Coord v = e.mesh().coord_of(m.to);
        if (v.row >= cn_) continue;  // inside the sender band only
        const std::int64_t i = v.col - geo_.line(0);
        if (i < 1 || i > classes_ || t > i * dn_) continue;
        const std::int64_t j = classify(e, m.packet);
        if (j <= i) continue;  // own column or unclassed: legal
        exchange(e, m.packet, i);
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

  void exchange(Sim& e, PacketId mover, std::int64_t i) {
    PacketId unscheduled = kInvalidPacket;
    PacketId scheduled_elsewhere = kInvalidPacket;
    for (std::size_t id = 0; id < class_count_; ++id) {
      const PacketId p = static_cast<PacketId>(id);
      if (p == mover) continue;
      const Packet& pk = e.packet(p);
      if (pk.delivered() || pk.location == kInvalidNode) continue;
      if (classify(e, p) != i) continue;
      const Coord at = e.mesh().coord_of(pk.location);
      if (at.col > geo_.line(i - 1) || at.row >= cn_) continue;  // (i−1)-box
      const NodeId target = scheduled_target_[p];
      if (target == kInvalidNode) {
        unscheduled = p;
        break;
      }
      if (e.mesh().coord_of(target).col != geo_.line(i) &&
          scheduled_elsewhere == kInvalidPacket) {
        scheduled_elsewhere = p;
      }
    }
    const PacketId partner =
        unscheduled != kInvalidPacket ? unscheduled : scheduled_elsewhere;
    MR_REQUIRE_MSG(partner != kInvalidPacket,
                   "no eligible partner (dim-order construction) at step "
                       << e.step());
    e.exchange_destinations(mover, partner);
    ++exchanges_;
  }

  const DimOrderConstruction& geo_;
  std::int32_t cn_;
  std::int32_t dn_;
  std::int64_t classes_;
  std::size_t class_count_;
  std::size_t exchanges_ = 0;
  std::vector<NodeId> scheduled_target_;
};

/// Online checker for the §5 dimension-order analogues of Lemmas 1–8:
///  * confinement — during window w, every class j ≥ w+2 packet is still
///    west of the N_{w+1}-column (inside the w-box),
///  * column purity — while class i's window is open, no packet of another
///    class occupies the N_i-column inside the sender band,
///  * escape discipline — at most one class-i packet leaves the i-box per
///    step, never before its window opens.
class DimOrderChecker : public Observer {
 public:
  DimOrderChecker(const DimOrderConstruction& geo, std::int32_t cn,
                  std::int32_t dn, std::int64_t classes,
                  std::size_t class_count)
      : geo_(geo), cn_(cn), dn_(dn), classes_(classes),
        class_count_(class_count),
        escapes_(static_cast<std::size_t>(classes) + 1, 0) {}

  void on_move(const Sim& e, const Packet& pk, NodeId from,
               NodeId to) override {
    if (static_cast<std::size_t>(pk.id) >= class_count_) return;
    const std::int64_t i = geo_.classify(e.mesh().coord_of(pk.source),
                                         e.mesh().coord_of(pk.dest));
    if (i == 0) return;
    const Coord f = e.mesh().coord_of(from);
    const Coord t = e.mesh().coord_of(to);
    const bool left_box = (f.col <= geo_.line(i) && f.row < cn_) &&
                          !(t.col <= geo_.line(i) && t.row < cn_);
    if (!left_box) return;
    const Step step = e.step();
    MR_REQUIRE_MSG(step > (i - 1) * dn_,
                   "dim-order Lemma 1 analogue violated for class " << i);
    if (step <= i * dn_) {
      MR_REQUIRE_MSG(++escapes_[i] <= 1,
                     "dim-order Lemma 2 analogue violated for class " << i);
    }
  }

  void on_step_end(const Sim& e) override {
    const Step t = e.step();
    const Step w = (t - 1) / dn_;
    for (std::size_t id = 0; id < class_count_; ++id) {
      const Packet& pk = e.packet(static_cast<PacketId>(id));
      if (pk.delivered() || pk.location == kInvalidNode) continue;
      const std::int64_t j = geo_.classify(e.mesh().coord_of(pk.source),
                                           e.mesh().coord_of(pk.dest));
      if (j == 0) continue;
      const Coord at = e.mesh().coord_of(pk.location);
      if (at.row >= cn_) continue;  // already turned north: out of the band
      if (j >= w + 2) {
        MR_REQUIRE_MSG(at.col <= geo_.line(w),
                       "dim-order confinement violated: class "
                           << j << " east of the " << w << "-box at step "
                           << t);
      }
      // Column purity: inside the band, the N_i-column may only hold
      // class-i packets while i's window is open.
      const std::int64_t col_class = at.col - geo_.line(0);
      if (col_class >= 1 && col_class <= classes_ &&
          t <= col_class * dn_) {
        MR_REQUIRE_MSG(j == col_class,
                       "dim-order column purity violated at step " << t);
      }
    }
    std::fill(escapes_.begin(), escapes_.end(), 0);
  }

 private:
  const DimOrderConstruction& geo_;
  std::int32_t cn_;
  std::int32_t dn_;
  std::int64_t classes_;
  std::size_t class_count_;
  std::vector<std::int64_t> escapes_;
};

}  // namespace

DimOrderConstruction::DimOrderConstruction(const Mesh& mesh,
                                           const DimOrderLbParams& params)
    : mesh_(mesh),
      n_(params.n),
      k_(params.k),
      cn_(params.cn),
      dn_(params.dn),
      p_(params.p),
      classes_(params.classes),
      certified_(params.certified_steps) {
  MR_REQUIRE_MSG(params.valid, "dim_order_lb_params invalid");
  MR_REQUIRE(mesh_.width() >= n_ && mesh_.height() >= n_);
}

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

DimOrderConstruction::RunResult DimOrderConstruction::run_construction(
    const std::string& algorithm, int k) {
  return construct(algorithm, k, nullptr);
}

DimOrderConstruction::RunResult DimOrderConstruction::construct(
    const std::string& algorithm, int k,
    std::vector<std::uint64_t>* stepwise_nodest) {
  auto algo = make_algorithm(algorithm);
  // Size check against total per-node buffering (4k for per-inlink).
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

  DimOrderInterceptor interceptor(*this, cn_, dn_, classes_, w.size());
  engine.set_interceptor(&interceptor);
  DimOrderChecker checker(*this, cn_, dn_, classes_, w.size());
  engine.add_observer(&checker);
  engine.prepare();

  RunResult result;
  if (stepwise_nodest != nullptr)
    stepwise_nodest->reserve(static_cast<std::size_t>(certified_));
  for (Step t = 1; t <= certified_; ++t) {
    MR_REQUIRE_MSG(engine.step_once(),
                   "network drained before the certified Ω(n²/k) bound");
    if (stepwise_nodest != nullptr)
      stepwise_nodest->push_back(engine.fingerprint(false));
  }
  result.steps = certified_;
  result.exchanges = interceptor.exchanges();
  result.undelivered = engine.num_packets() - engine.delivered_count();
  result.final_fingerprint = engine.fingerprint(true);
  result.constructed.reserve(engine.num_packets());
  for (const Packet& pk : engine.all_packets())
    result.constructed.push_back(Demand{pk.source, pk.dest, pk.injected_at});
  return result;
}

DimOrderConstruction::ReplayResult DimOrderConstruction::verify_replay(
    const std::string& algorithm, int k, Step replay_budget) {
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
