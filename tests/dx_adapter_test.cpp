// The DX adapter contract (routing/dx.hpp), checked with a test-local
// router on every engine that drives it:
//   * no view type exposes a member through which a policy could reach the
//     Sim, a packet record or a destination (checked at compile time);
//   * inside dx_init, dx_plan_out, dx_plan_in and dx_update every NodeCtx
//     accessor equals a direct read of the Sim at that moment, and at
//     every dx_plan_in, NodeCtx::resident() and inlink_occupancy(t) equal
//     the node's queue counts at the start of phase (c);
//   * a router constructed with Update::None never reaches dx_update,
//     although the engine still calls update_state; one with
//     Update::Defined reaches it on every call;
//   * one with Update::NodeState reaches it on every call with an empty
//     span, and only the node state it leaves is written back;
//   * one with PlanOut::QueueOnly sees ctx.state and ctx.step() as 0 in
//     dx_plan_out, and the engine re-plans a node only when its queue
//     changed: a packet arrived or left, changed state or had its
//     destination exchanged, or the engine was restored.
#include <gtest/gtest.h>

#include <array>
#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "check/reference_engine.hpp"
#include "routing/dimension_order.hpp"
#include "routing/dx.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/snapshot.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

using NodeCtx = DxAlgorithm::NodeCtx;

// --- §2 by construction ----------------------------------------------------

/// True if T exposes a member by a name through which a Sim, a packet
/// record or a destination could be reached. Access is checked: NodeCtx's
/// private Sim pointer does not count.
template <typename T>
concept ExposesHidden =
    requires(T& t) { t.sim_; } || requires(T& t) { t.sim; } ||
    requires(T& t) { t.sim(); } || requires(T& t) { t.engine; } ||
    requires(T& t) { t.packet; } || requires(T& t) { t.packet(); } ||
    requires(T& t) { t.pk; } ||
    requires(T& t) { t.dest; } || requires(T& t) { t.dest(); } ||
    requires(T& t) { t.destination; } || requires(T& t) { t.destination(); };

/// A plain value: no pointer, reference or record to follow.
template <typename M>
constexpr bool kPlain = std::is_arithmetic_v<M> || std::is_enum_v<M>;

/// Every member of the two view records, pinned by count and checked to be
/// a plain value, so a new field (a pointer, a Packet, a second mask) fails
/// to compile here until this list is revisited.
constexpr bool view_members_are_plain() {
  [[maybe_unused]] auto [id, source, state, arrived_at, queue,
                         arrival_inlink, profitable] = PacketDxView{};
  return kPlain<decltype(id)> && kPlain<decltype(source)> &&
         kPlain<decltype(state)> && kPlain<decltype(arrived_at)> &&
         kPlain<decltype(queue)> && kPlain<decltype(arrival_inlink)> &&
         kPlain<decltype(profitable)>;
}
constexpr bool offer_members_are_plain() {
  [[maybe_unused]] auto [id, profitable, travel_dir] = DxOffer{};
  return kPlain<decltype(id)> && kPlain<decltype(profitable)> &&
         kPlain<decltype(travel_dir)>;
}

static_assert(!ExposesHidden<NodeCtx> && !ExposesHidden<PacketDxView> &&
                  !ExposesHidden<DxOffer>,
              "a DX view exposes the Sim, a packet or a destination");
static_assert(view_members_are_plain() && offer_members_are_plain());
// NodeCtx's public surface: the node, its state and plain-valued readers;
// only the adapter can build one.
static_assert(requires(NodeCtx& c, Dir d, int t) {
  { c.node } -> std::same_as<NodeId&>;
  { c.state } -> std::same_as<std::uint64_t&>;
  { c.step() } -> std::same_as<Step>;
  { c.coord() } -> std::same_as<Coord>;
  { c.width() } -> std::same_as<std::int32_t>;
  { c.height() } -> std::same_as<std::int32_t>;
  { c.torus() } -> std::same_as<bool>;
  { c.capacity() } -> std::same_as<int>;
  { c.resident() } -> std::same_as<int>;
  { c.inlink_occupancy(t) } -> std::same_as<int>;
  { c.fault_mode() } -> std::same_as<bool>;
  { c.has_outlink(d) } -> std::same_as<bool>;
});
static_assert(!std::is_aggregate_v<NodeCtx> &&
              !std::is_constructible_v<NodeCtx, const Sim&, NodeId,
                                       std::uint64_t, bool>);
// The concept does catch a leak.
struct LeakyCtx {
  const Sim* sim = nullptr;
};
static_assert(ExposesHidden<LeakyCtx>);

/// Queue counts of one node, taken by scanning its queue rather than from
/// the engine's incremental counters.
struct Counts {
  int resident = 0;
  std::array<int, kNumDirs> inlink{};
};

Counts scan(const Sim& e, NodeId v) {
  Counts c;
  for (PacketId p : e.packets_at(v)) {
    ++c.resident;
    if (e.queue_layout() == QueueLayout::PerInlink)
      ++c.inlink[e.packet(p).queue];
  }
  return c;
}

std::array<int, kNumDirs> inlinks(const NodeCtx& ctx) {
  std::array<int, kNumDirs> a{};
  for (int t = 0; t < kNumDirs; ++t) a[t] = ctx.inlink_occupancy(t);
  return a;
}

enum Callback { kInit, kPlanOut, kPlanIn, kUpdate, kNumCallbacks };

/// Dimension-order outqueue, capacity-checked inqueue. Every callback
/// compares each accessor with a direct read of `sim`, which ProbeHarness
/// sets before forwarding.
class ProbeRouter final : public DxAlgorithm {
 public:
  ProbeRouter(QueueLayout layout, Update update)
      : DxAlgorithm(update), layout_(layout) {}

  std::string name() const override { return "probe"; }
  QueueLayout queue_layout() const override { return layout_; }

  const Sim* sim = nullptr;
  std::int64_t update_calls = 0;
  std::int64_t nonempty_update_spans = 0;
  std::array<std::int64_t, kNumCallbacks> accessor_calls{};
  std::array<std::int64_t, kNumCallbacks> accessor_mismatches{};

 protected:
  void dx_init(NodeCtx& ctx, std::span<PacketDxView>) override {
    check_accessors(ctx, kInit);
  }

  void dx_plan_out(NodeCtx& ctx, std::span<const PacketDxView> resident,
                   OutPlan& plan) override {
    check_accessors(ctx, kPlanOut);
    for (const PacketDxView& v : resident) {
      Dir d;
      if (dimension_order_dir(v.profitable, d) &&
          plan.scheduled(d) == kInvalidPacket)
        plan.schedule(d, v.id);
    }
  }

  void dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                  InPlan& plan) override {
    check_accessors(ctx, kPlanIn);
    int free = ctx.capacity() - ctx.resident();
    for (std::size_t i = 0; i < offers.size(); ++i) {
      if (layout_ == QueueLayout::PerInlink) {
        // One offer per inlink, each into its own queue.
        const int queue = dir_index(opposite(offers[i].travel_dir));
        plan.accept[i] = ctx.inlink_occupancy(queue) < ctx.capacity();
      } else if (free > 0) {
        plan.accept[i] = true;
        --free;
      }
    }
  }

  // Counts the call in the node state and marks every view it is given,
  // so the tests can see which states the adapter writes back.
  void dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) override {
    check_accessors(ctx, kUpdate);
    ++update_calls;
    if (!resident.empty()) ++nonempty_update_spans;
    ++ctx.state;
    for (PacketDxView& v : resident) ++v.state;
  }

 private:
  /// Compares every accessor, and the node state the context starts with,
  /// with a direct read of the Sim at this moment.
  void check_accessors(const NodeCtx& ctx, Callback callback) {
    const NodeId u = ctx.node;
    const Topology& mesh = sim->mesh();
    const Counts c = scan(*sim, u);
    bool ok = ctx.state == sim->node_state(u) &&
              ctx.resident() == c.resident && inlinks(ctx) == c.inlink &&
              ctx.coord() == mesh.coord_of(u) && ctx.step() == sim->step() &&
              ctx.capacity() == sim->queue_capacity() &&
              ctx.fault_mode() == !sim->fault_schedule().empty() &&
              ctx.width() == mesh.width() && ctx.height() == mesh.height() &&
              ctx.torus() == mesh.is_torus();
    for (Dir d : kAllDirs)
      ok = ok && ctx.has_outlink(d) == (mesh.neighbor(u, d) != kInvalidNode);
    ++accessor_calls[callback];
    if (!ok) ++accessor_mismatches[callback];
  }

  QueueLayout layout_;
};

/// Forwards to a ProbeRouter, handing it the Sim the call reads and
/// counting update_state calls.
class ProbeHarness final : public Algorithm {
 public:
  ProbeHarness(QueueLayout layout, DxAlgorithm::Update update)
      : probe_(std::make_unique<ProbeRouter>(layout, update)) {}

  std::string name() const override { return probe_->name(); }
  QueueLayout queue_layout() const override { return probe_->queue_layout(); }
  void init(Sim& e) override {
    probe_->sim = &e;
    probe_->init(e);
  }
  void plan_out(Sim& e, NodeId u, OutPlan& plan) override {
    probe_->sim = &e;
    probe_->plan_out(e, u, plan);
  }
  void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
               InPlan& plan) override {
    probe_->sim = &e;
    probe_->plan_in(e, v, offers, plan);
  }
  void update_state(Sim& e, NodeId v) override {
    probe_->sim = &e;
    ++update_state_calls;
    probe_->update_state(e, v);
  }

  const ProbeRouter& probe() const { return *probe_; }
  std::int64_t update_state_calls = 0;

 private:
  std::unique_ptr<ProbeRouter> probe_;
};

enum class EngineKind { Sequential, Sharded, Reference };

struct Tally {
  std::int64_t update_state_calls = 0;
  std::int64_t dx_update_calls = 0;
  std::int64_t nonempty_update_spans = 0;
  std::int64_t moves = 0;
  std::uint64_t node_state_sum = 0;    ///< over every node at the end
  std::uint64_t packet_state_sum = 0;  ///< over every packet at the end
  std::array<std::int64_t, kNumCallbacks> accessor_calls{};
  std::array<std::int64_t, kNumCallbacks> accessor_mismatches{};
};

template <typename E>
void drive(E& e, const Workload& w) {
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
  e.prepare();
  for (int s = 0; s < 60 && !e.all_delivered() && !e.stalled(); ++s)
    e.step_once();
}

Tally tally(const std::vector<const ProbeHarness*>& bands, const Sim& e) {
  Tally t;
  for (const ProbeHarness* h : bands) {
    t.update_state_calls += h->update_state_calls;
    t.dx_update_calls += h->probe().update_calls;
    t.nonempty_update_spans += h->probe().nonempty_update_spans;
    for (int c = 0; c < kNumCallbacks; ++c) {
      t.accessor_calls[c] += h->probe().accessor_calls[c];
      t.accessor_mismatches[c] += h->probe().accessor_mismatches[c];
    }
  }
  t.moves = e.total_moves();
  for (NodeId v = 0; v < e.mesh().num_nodes(); ++v)
    t.node_state_sum += e.node_state(v);
  for (const Packet& pk : e.all_packets()) t.packet_state_sum += pk.state;
  return t;
}

/// `faults`, when non-empty, is installed as the run's fault schedule.
Tally run(EngineKind kind, QueueLayout layout, DxAlgorithm::Update update,
          const std::string& faults = "") {
  const Mesh mesh = Mesh::square(12);
  const Workload w = random_hh(mesh, 2, 5);
  constexpr int k = 2;
  constexpr Step stall_limit = 64;
  FaultSchedule schedule;
  if (!faults.empty()) {
    std::string error;
    EXPECT_TRUE(parse_fault_schedule(faults, &schedule, &error)) << error;
  }
  if (kind == EngineKind::Reference) {
    ProbeHarness harness(layout, update);
    ReferenceEngine e(mesh, k, stall_limit, harness);
    e.set_fault_schedule(schedule);
    drive(e, w);
    return tally({&harness}, e);
  }
  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = stall_limit;
  if (kind == EngineKind::Sharded) {
    config.shards = 4;
    config.threads = 2;
  }
  std::vector<const ProbeHarness*> bands;
  Engine e(mesh, config, [&] {
    auto harness = std::make_unique<ProbeHarness>(layout, update);
    bands.push_back(harness.get());
    return harness;
  });
  e.set_fault_schedule(schedule);
  drive(e, w);
  return tally(bands, e);
}

const char* kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::Sequential: return "sequential";
    case EngineKind::Sharded: return "sharded";
    case EngineKind::Reference: return "reference";
  }
  return "?";
}

TEST(DxAdapter, PlanInSeesStartOfPhaseCCounts) {
  for (EngineKind kind : {EngineKind::Sequential, EngineKind::Sharded,
                          EngineKind::Reference}) {
    for (QueueLayout layout : {QueueLayout::Central, QueueLayout::PerInlink}) {
      const Tally t = run(kind, layout, DxAlgorithm::Update::None);
      const std::string label =
          std::string(kind_name(kind)) +
          (layout == QueueLayout::Central ? "/central" : "/per-inlink");
      EXPECT_GT(t.moves, 0) << label;
      // Phases (a)-(c) move no packet, so the Sim read inside dx_plan_in
      // holds the counts at the start of phase (c).
      EXPECT_GT(t.accessor_calls[kPlanIn], 0) << label;
      EXPECT_EQ(t.accessor_mismatches[kPlanIn], 0) << label;
    }
  }
}

TEST(DxAdapter, AccessorsReadTheSimDuringEveryCallback) {
  constexpr const char* kNames[kNumCallbacks] = {"dx_init", "dx_plan_out",
                                                 "dx_plan_in", "dx_update"};
  for (EngineKind kind : {EngineKind::Sequential, EngineKind::Sharded,
                          EngineKind::Reference}) {
    for (QueueLayout layout : {QueueLayout::Central, QueueLayout::PerInlink}) {
      // A fault window that closes before the run ends: fault_mode() holds
      // for the whole run all the same.
      for (const char* faults : {"", "node:40@2-6"}) {
        const std::string label =
            std::string(kind_name(kind)) +
            (layout == QueueLayout::Central ? "/central" : "/per-inlink") +
            (*faults != '\0' ? "/faults" : "");
        const Tally t =
            run(kind, layout, DxAlgorithm::Update::Defined, faults);
        EXPECT_GT(t.moves, 0) << label;
        for (int c = 0; c < kNumCallbacks; ++c) {
          EXPECT_GT(t.accessor_calls[c], 0) << label << " " << kNames[c];
          EXPECT_EQ(t.accessor_mismatches[c], 0) << label << " " << kNames[c];
        }
      }
    }
  }
}

TEST(DxAdapter, UpdateNoneNeverReachesDxUpdate) {
  for (EngineKind kind : {EngineKind::Sequential, EngineKind::Sharded,
                          EngineKind::Reference}) {
    const Tally none =
        run(kind, QueueLayout::PerInlink, DxAlgorithm::Update::None);
    EXPECT_GT(none.update_state_calls, 0) << kind_name(kind);
    EXPECT_EQ(none.dx_update_calls, 0) << kind_name(kind);

    const Tally defined =
        run(kind, QueueLayout::PerInlink, DxAlgorithm::Update::Defined);
    EXPECT_GT(defined.update_state_calls, 0) << kind_name(kind);
    EXPECT_EQ(defined.dx_update_calls, defined.update_state_calls)
        << kind_name(kind);
  }
}

TEST(DxAdapter, UpdateNodeStateWritesOnlyTheNodeState) {
  for (EngineKind kind : {EngineKind::Sequential, EngineKind::Sharded,
                          EngineKind::Reference}) {
    for (QueueLayout layout : {QueueLayout::Central, QueueLayout::PerInlink}) {
      const std::string label =
          std::string(kind_name(kind)) +
          (layout == QueueLayout::Central ? "/central" : "/per-inlink");
      const Tally t = run(kind, layout, DxAlgorithm::Update::NodeState);
      EXPECT_GT(t.moves, 0) << label;
      EXPECT_GT(t.update_state_calls, 0) << label;
      EXPECT_EQ(t.dx_update_calls, t.update_state_calls) << label;
      EXPECT_EQ(t.nonempty_update_spans, 0) << label;
      // Every call's ++ctx.state landed in the Sim; no packet state moved.
      EXPECT_EQ(t.node_state_sum,
                static_cast<std::uint64_t>(t.dx_update_calls))
          << label;
      EXPECT_EQ(t.packet_state_sum, 0u) << label;

      // Control: the same probe built with Update::Defined sees views and
      // has its packet marks written back.
      const Tally defined = run(kind, layout, DxAlgorithm::Update::Defined);
      EXPECT_GT(defined.nonempty_update_spans, 0) << label;
      EXPECT_GT(defined.packet_state_sum, 0u) << label;
    }
  }
}

/// A queue-only router for the plan-reuse cases: dimension-order outqueue,
/// an inqueue that rejects every offer (so nothing moves and every queue
/// stays as placed), and a dx_update that advances the node state on every
/// call and, on request, changes one packet's state at one step. It counts
/// dx_plan_out calls per node and every nonzero state or step shown there.
class QueueOnlyProbe final : public DxAlgorithm {
 public:
  QueueOnlyProbe() : DxAlgorithm(Update::Defined, PlanOut::QueueOnly) {}

  std::string name() const override { return "queue-only-probe"; }

  std::vector<int> plans;  ///< dx_plan_out calls per node
  std::int64_t nonzero_seen = 0;
  PacketId bump_packet = kInvalidPacket;
  Step bump_step = 0;

 protected:
  void dx_plan_out(NodeCtx& ctx, std::span<const PacketDxView> resident,
                   OutPlan& plan) override {
    if (plans.empty())
      plans.assign(static_cast<std::size_t>(ctx.width() * ctx.height()), 0);
    ++plans[static_cast<std::size_t>(ctx.node)];
    if (ctx.state != 0 || ctx.step() != 0) ++nonzero_seen;
    for (const PacketDxView& v : resident) {
      Dir d;
      if (dimension_order_dir(v.profitable, d) &&
          plan.scheduled(d) == kInvalidPacket)
        plan.schedule(d, v.id);
    }
  }

  void dx_plan_in(NodeCtx&, std::span<const DxOffer>, InPlan&) override {}

  void dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) override {
    ++ctx.state;
    for (PacketDxView& v : resident)
      if (v.id == bump_packet && ctx.step() == bump_step) ++v.state;
  }
};

/// Exchanges the destinations of two packets in phase (b) of one step.
class ExchangeAt final : public StepInterceptor {
 public:
  ExchangeAt(PacketId a, PacketId b, Step at) : a_(a), b_(b), at_(at) {}
  void after_schedule(Sim& e, std::span<const ScheduledMove>) override {
    if (e.step() == at_) e.exchange_destinations(a_, b_);
  }

 private:
  PacketId a_, b_;
  Step at_;
};

/// Three blocked packets on a 6×6 mesh at k = 1: a and b head East from
/// (0,0) and (0,2), c heads South from (5,5). Exchanging a's and b's
/// destinations keeps both scheduled East moves minimal.
struct Blocked {
  Mesh mesh = Mesh::square(6);
  NodeId at_a = mesh.id_of(0, 0);
  NodeId at_b = mesh.id_of(0, 2);
  NodeId at_c = mesh.id_of(5, 5);

  template <typename E>
  void add_packets(E& e) const {
    e.add_packet(at_a, mesh.id_of(3, 0));
    e.add_packet(at_b, mesh.id_of(4, 2));
    e.add_packet(at_c, mesh.id_of(5, 1));
  }
  Engine::Config config(int shards = 1) const {
    Engine::Config c;
    c.queue_capacity = 1;
    c.stall_limit = 0;  // nothing ever moves
    c.shards = shards;
    return c;
  }
  int plans(const QueueOnlyProbe& probe, NodeId u) const {
    return probe.plans.empty() ? 0 : probe.plans[static_cast<std::size_t>(u)];
  }
};

TEST(DxAdapter, QueueOnlyPlanOutSeesNoStateOrStep) {
  Blocked fx;
  // The bump makes the engine re-plan a's node at step 4, when its node
  // state is 3; the reference engine re-plans every node on every step.
  QueueOnlyProbe on_engine, on_reference;
  on_engine.bump_packet = on_reference.bump_packet = 0;
  on_engine.bump_step = on_reference.bump_step = 3;
  Engine e(fx.mesh, fx.config(), on_engine);
  ReferenceEngine ref(fx.mesh, 1, 0, on_reference);
  fx.add_packets(e);
  fx.add_packets(ref);
  e.prepare();
  ref.prepare();
  for (int s = 0; s < 6; ++s) {
    e.step_once();
    ref.step_once();
  }
  EXPECT_TRUE(on_engine.plan_out_reads_queue_only());
  EXPECT_EQ(fx.plans(on_engine, fx.at_a), 2);
  EXPECT_EQ(fx.plans(on_reference, fx.at_a), 6);
  EXPECT_EQ(e.node_state(fx.at_a), 6u);
  EXPECT_EQ(on_engine.nonzero_seen, 0);
  EXPECT_EQ(on_reference.nonzero_seen, 0);
}

TEST(DxAdapter, UnchangedQueueIsNotReplanned) {
  Blocked fx;
  for (int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    QueueOnlyProbe probe;
    Engine e(fx.mesh, fx.config(shards), probe);
    fx.add_packets(e);
    e.prepare();
    for (int s = 0; s < 6; ++s) e.step_once();
    EXPECT_EQ(e.step(), 6);
    EXPECT_EQ(e.total_moves(), 0);
    // Planned once, at step 1; the packet states written back every step
    // are unchanged, so the plans stay fresh.
    for (NodeId u : {fx.at_a, fx.at_b, fx.at_c})
      EXPECT_EQ(fx.plans(probe, u), 1) << "node " << u;
  }
}

TEST(DxAdapter, ChangedQueueIsReplanned) {
  Blocked fx;
  {
    SCOPED_TRACE("packet state");
    QueueOnlyProbe probe;
    probe.bump_packet = 0;  // a
    probe.bump_step = 3;
    Engine e(fx.mesh, fx.config(), probe);
    fx.add_packets(e);
    e.prepare();
    for (int s = 0; s < 6; ++s) e.step_once();
    EXPECT_EQ(fx.plans(probe, fx.at_a), 2);
    EXPECT_EQ(fx.plans(probe, fx.at_b), 1);
    EXPECT_EQ(fx.plans(probe, fx.at_c), 1);
  }
  {
    SCOPED_TRACE("exchange");
    QueueOnlyProbe probe;
    ExchangeAt exchange(0, 1, 3);  // a <-> b
    Engine e(fx.mesh, fx.config(), probe);
    e.set_interceptor(&exchange);
    fx.add_packets(e);
    e.prepare();
    for (int s = 0; s < 6; ++s) e.step_once();
    EXPECT_EQ(e.exchange_count(), 1u);
    EXPECT_EQ(fx.plans(probe, fx.at_a), 2);
    EXPECT_EQ(fx.plans(probe, fx.at_b), 2);
    EXPECT_EQ(fx.plans(probe, fx.at_c), 1);
  }
  {
    SCOPED_TRACE("restore");
    QueueOnlyProbe probe;
    Engine e(fx.mesh, fx.config(), probe);
    fx.add_packets(e);
    e.prepare();
    for (int s = 0; s < 2; ++s) e.step_once();
    const EngineSnapshot snap = e.snapshot();
    for (int s = 0; s < 2; ++s) e.step_once();
    e.restore(snap);
    for (int s = 0; s < 2; ++s) e.step_once();
    for (NodeId u : {fx.at_a, fx.at_b, fx.at_c})
      EXPECT_EQ(fx.plans(probe, u), 2) << "node " << u;
  }
}

}  // namespace
}  // namespace mr
