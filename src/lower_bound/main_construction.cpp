#include "lower_bound/main_construction.hpp"

#include <algorithm>
#include <unordered_set>

#include "check/oracles.hpp"
#include "core/rng.hpp"
#include "routing/registry.hpp"

namespace mr {

namespace {

/// Exchange rules EX1–EX4 (§3 step 3), applied between scheduling and
/// acceptance. Iterates to a fixed point: an exchange can re-expose a
/// violation on an already-scanned move (the partner's own scheduled move
/// changes class), but never creates one at a previously clean move.
class ExchangeInterceptor : public StepInterceptor {
 public:
  ExchangeInterceptor(const MainGeometry& geometry, std::int32_t dn,
                      std::size_t class_packet_count)
      : geo_(geometry), dn_(dn), class_count_(class_packet_count) {}

  std::size_t exchanges() const { return exchanges_; }

  void after_schedule(Sim& e, std::span<const ScheduledMove> moves) override {
    const Step t = e.step();
    if (t > geo_.classes() * dn_) return;  // all exchange windows closed

    // Map packet -> scheduled target (for partner-eligibility checks).
    scheduled_target_.assign(e.num_packets(), kInvalidNode);
    for (const ScheduledMove& m : moves)
      scheduled_target_[m.packet] = m.to;

    bool changed = true;
    std::size_t rounds = 0;
    while (changed) {
      changed = false;
      MR_REQUIRE_MSG(++rounds <= moves.size() + 4,
                     "exchange fix-point failed to converge");
      for (const ScheduledMove& m : moves) {
        if (apply_rules(e, m)) changed = true;
      }
    }
  }

 private:
  PacketClass classify(const Sim& e, PacketId p) const {
    if (static_cast<std::size_t>(p) >= class_count_) return PacketClass{};
    const Packet& pk = e.packet(p);
    return geo_.classify(e.mesh().coord_of(pk.source),
                         e.mesh().coord_of(pk.dest));
  }

  /// Returns true if an exchange was performed for this move.
  bool apply_rules(Sim& e, const ScheduledMove& m) {
    const Step t = e.step();
    const Coord v = e.mesh().coord_of(m.to);
    if (v.col >= geo_.size() || v.row >= geo_.size()) return false;
    const PacketClass cls = classify(e, m.packet);
    if (cls.type == ClassType::None) return false;

    if (v.row < v.col) {
      // Entering the N_i-column south of the E_i-row, i = column index − γ.
      const std::int64_t i = v.col - geo_.line(0);
      if (i < 1 || i > geo_.classes() || t > i * dn_) return false;
      const bool ex2 = cls.type == ClassType::N && cls.i > i;   // EX2
      const bool ex3 = cls.type == ClassType::E && cls.i >= i;  // EX3
      if (cls.type == ClassType::N && cls.i < i) {
        // An N_j-packet (j < i) can never be east of its own column.
        MR_REQUIRE_MSG(false, "N_" << cls.i << " packet east of its column");
      }
      if (!ex2 && !ex3) return false;
      exchange_with(e, m.packet, ClassType::N, i, /*line_is_column=*/true);
      return true;
    }
    if (v.col < v.row) {
      // Entering the E_i-row west of the N_i-column.
      const std::int64_t i = v.row - geo_.line(0);
      if (i < 1 || i > geo_.classes() || t > i * dn_) return false;
      const bool ex1 = cls.type == ClassType::E && cls.i > i;   // EX1
      const bool ex4 = cls.type == ClassType::N && cls.i >= i;  // EX4
      if (cls.type == ClassType::E && cls.i < i) {
        MR_REQUIRE_MSG(false, "E_" << cls.i << " packet north of its row");
      }
      if (!ex1 && !ex4) return false;
      exchange_with(e, m.packet, ClassType::E, i, /*line_is_column=*/false);
      return true;
    }
    return false;  // the i-box corner is not covered by any rule
  }

  void exchange_with(Sim& e, PacketId mover, ClassType want,
                     std::int64_t i, bool line_is_column) {
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
      const NodeId target = scheduled_target_[p];
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
    e.exchange_destinations(mover, best);
    ++exchanges_;
  }

  const MainGeometry& geo_;
  std::int32_t dn_;
  std::size_t class_count_;
  std::size_t exchanges_ = 0;
  std::vector<NodeId> scheduled_target_;
};

}  // namespace

MainConstruction::MainConstruction(const Mesh& mesh,
                                   const MainLbParams& params,
                                   MainConstructionOptions options)
    : mesh_(mesh),
      size_(params.n),
      k_(params.k),
      h_(1),
      cn_(params.cn),
      dn_(params.dn),
      p_(params.p),
      classes_(params.classes),
      certified_(params.certified_steps),
      options_(options),
      geometry_(params.n, params.cn, params.classes) {
  init_common();
  MR_REQUIRE_MSG(params.valid, "main_lb_params invalid for n=" << params.n
                                                               << " k="
                                                               << params.k);
}

MainConstruction::MainConstruction(const Mesh& mesh, const HhLbParams& params,
                                   MainConstructionOptions options)
    : mesh_(mesh),
      size_(params.n),
      k_(params.k),
      h_(params.h),
      cn_(params.cn),
      dn_(params.dn),
      p_(params.p),
      classes_(params.classes),
      certified_(params.certified_steps),
      options_(options),
      geometry_(params.n, params.cn, params.classes) {
  init_common();
  MR_REQUIRE_MSG(params.valid, "hh_lb_params invalid");
  MR_REQUIRE_MSG(!options_.full_permutation,
                 "full-permutation filler is only defined for h = 1");
}

void MainConstruction::init_common() {
  MR_REQUIRE(mesh_.width() >= size_ && mesh_.height() >= size_);
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
                   static_cast<std::int32_t>(size_ - 1 - j / h_)};
      MR_REQUIRE_MSG(dest.row > geometry_.line(cls.i),
                     "N-destination capacity exhausted");
    } else {
      const std::int64_t j = e_count[cls.i]++;
      dest = Coord{static_cast<std::int32_t>(size_ - 1 - j / h_),
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
    MR_REQUIRE_MSG(mesh_.width() == size_ && mesh_.height() == size_,
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
    const std::string& algorithm, int k, Observer* extra_observer) {
  return construct(algorithm, k, extra_observer, nullptr);
}

MainConstruction::RunResult MainConstruction::construct(
    const std::string& algorithm, int k, Observer* extra_observer,
    std::vector<std::uint64_t>* stepwise_nodest) {
  auto algo = make_algorithm(algorithm);
  MR_REQUIRE_MSG(algo->minimal(), "construction applies to minimal routers");
  // The counting argument (Lemmas 3/4) uses the total per-node buffer
  // capacity: k for a central queue, 4k for the per-inlink layout. The
  // construction must be sized for at least the actual capacity.
  const int per_node_capacity =
      algo->queue_layout() == QueueLayout::PerInlink ? 4 * k : k;
  MR_REQUIRE_MSG(per_node_capacity <= k_,
                 "construction sized for total capacity "
                     << k_ << " but the router buffers " << per_node_capacity
                     << " per node");

  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = 0;  // heavy congestion is the whole point
  Engine engine(mesh_, config, *algo);
  const Workload w = placement();
  const std::size_t class_count =
      static_cast<std::size_t>(2 * p_ * classes_);
  for (const Demand& d : w) engine.add_packet(d.source, d.dest, d.injected_at);

  ExchangeInterceptor exchanger(geometry_, dn_, class_count);
  engine.set_interceptor(&exchanger);
  // Lemmas 1-8 are checked by the shared box-escape oracle from the
  // differential-verification subsystem (check/oracles.hpp).
  BoxEscapeOracle checker(geometry_, dn_, class_count);
  if (options_.check_invariants) engine.add_observer(&checker);
  if (extra_observer != nullptr) engine.add_observer(extra_observer);

  engine.prepare();
  RunResult result;
  if (stepwise_nodest != nullptr)
    stepwise_nodest->reserve(static_cast<std::size_t>(certified_));
  for (Step t = 1; t <= certified_; ++t) {
    MR_REQUIRE_MSG(engine.step_once(),
                   "network drained before the certified bound — Corollary 9 "
                   "violated");
    if (stepwise_nodest != nullptr)
      stepwise_nodest->push_back(engine.fingerprint(false));
  }
  result.steps = certified_;
  result.exchanges = exchanger.exchanges();
  result.delivered = engine.delivered_count();
  result.undelivered = engine.num_packets() - engine.delivered_count();
  result.max_escapes_per_step = checker.max_escapes_per_step();
  result.final_fingerprint = engine.fingerprint(true);

  // Corollary 9 census: class-⌊l⌋ packets still confined to the ⌊l⌋-box
  // (packets awaiting injection count at their source).
  for (std::size_t id = 0; id < class_count; ++id) {
    const Packet& pk = engine.packet(static_cast<PacketId>(id));
    if (pk.delivered()) continue;
    const NodeId at = pk.location != kInvalidNode ? pk.location : pk.source;
    const PacketClass cls = geometry_.classify(
        mesh_.coord_of(pk.source), mesh_.coord_of(pk.dest));
    if (cls.type != ClassType::None && cls.i == classes_ &&
        geometry_.in_box(mesh_.coord_of(at), classes_)) {
      ++result.last_class_in_box;
    }
  }

  // §3 step 4: the constructed permutation.
  result.constructed.reserve(engine.num_packets());
  for (const Packet& pk : engine.all_packets())
    result.constructed.push_back(Demand{pk.source, pk.dest, pk.injected_at});
  return result;
}

MainConstruction::ReplayResult MainConstruction::verify_replay(
    const std::string& algorithm, int k, Step replay_budget) {
  ReplayResult out;
  std::vector<std::uint64_t> stepwise_nodest;
  out.construction = construct(algorithm, k, nullptr, &stepwise_nodest);

  auto algo = make_algorithm(algorithm);
  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = 0;
  Engine replay(mesh_, config, *algo);
  for (const Demand& d : out.construction.constructed)
    replay.add_packet(d.source, d.dest, d.injected_at);
  replay.prepare();

  // Lemma 12: at every step t the replay equals the construction up to the
  // not-yet-performed exchanges, which only permute destinations — so the
  // destination-less configurations must be identical...
  for (Step t = 1; t <= certified_; ++t) {
    MR_REQUIRE(replay.step_once());
    if (replay.fingerprint(false) !=
        stepwise_nodest[static_cast<std::size_t>(t - 1)]) {
      out.stepwise_match = false;
      if (out.first_mismatch < 0) out.first_mismatch = t;
    }
  }
  // ...and at step ⌊l⌋·dn no exchanges are pending, so the full
  // configurations coincide (Theorem 13), leaving an undelivered packet.
  out.final_match =
      replay.fingerprint(true) == out.construction.final_fingerprint;
  out.undelivered_at_certified =
      replay.num_packets() - replay.delivered_count();

  const Step budget = replay_budget > 0
                          ? replay_budget
                          : certified_ + 16LL * size_ * size_ / std::max(1, k) +
                                64LL * size_;
  out.replay_total_steps = replay.run(budget);
  out.replay_all_delivered = replay.all_delivered();
  return out;
}

}  // namespace mr
