// The DX adapter contract (routing/dx.hpp), checked with a test-local
// router on every engine that drives it:
//   * at every dx_plan_in, NodeCtx::resident and NodeCtx::inlink_occupancy
//     equal the node's queue counts at the start of phase (c);
//   * a router constructed with Update::None never reaches dx_update,
//     although the engine still calls update_state; one with
//     Update::Defined reaches it on every call;
//   * one with Update::NodeState reaches it on every call with an empty
//     span, and only the node state it leaves is written back.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/reference_engine.hpp"
#include "routing/dimension_order.hpp"
#include "routing/dx.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

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

/// Dimension-order outqueue, capacity-checked inqueue. dx_plan_in compares
/// its context with `expected`, which ProbeHarness sets just before.
class ProbeRouter final : public DxAlgorithm {
 public:
  ProbeRouter(QueueLayout layout, Update update)
      : DxAlgorithm(update), layout_(layout) {}

  std::string name() const override { return "probe"; }
  QueueLayout queue_layout() const override { return layout_; }

  Counts expected;
  std::int64_t plan_in_calls = 0;
  std::int64_t mismatches = 0;
  std::int64_t update_calls = 0;
  std::int64_t nonempty_update_spans = 0;

 protected:
  void dx_plan_out(NodeCtx&, std::span<const PacketDxView> resident,
                   OutPlan& plan) override {
    for (const PacketDxView& v : resident) {
      Dir d;
      if (dimension_order_dir(v.profitable, d) &&
          plan.scheduled(d) == kInvalidPacket)
        plan.schedule(d, v.id);
    }
  }

  void dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                  InPlan& plan) override {
    ++plan_in_calls;
    if (ctx.resident != expected.resident ||
        ctx.inlink_occupancy != expected.inlink)
      ++mismatches;
    int free = ctx.capacity - ctx.resident;
    for (std::size_t i = 0; i < offers.size(); ++i) {
      if (layout_ == QueueLayout::PerInlink) {
        // One offer per inlink, each into its own queue.
        const int queue = dir_index(opposite(offers[i].travel_dir));
        plan.accept[i] = ctx.inlink_occupancy[queue] < ctx.capacity;
      } else if (free > 0) {
        plan.accept[i] = true;
        --free;
      }
    }
  }

  // Counts the call in the node state and marks every view it is given,
  // so the tests can see which states the adapter writes back.
  void dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) override {
    ++update_calls;
    if (!resident.empty()) ++nonempty_update_spans;
    ++ctx.state;
    for (PacketDxView& v : resident) ++v.state;
  }

 private:
  QueueLayout layout_;
};

/// Forwards to a ProbeRouter. Before each plan_in it records the node's
/// counts: phases (a)-(c) move no packet, so they are the counts at the
/// start of phase (c).
class ProbeHarness final : public Algorithm {
 public:
  ProbeHarness(QueueLayout layout, DxAlgorithm::Update update)
      : probe_(std::make_unique<ProbeRouter>(layout, update)) {}

  std::string name() const override { return probe_->name(); }
  QueueLayout queue_layout() const override { return probe_->queue_layout(); }
  void init(Sim& e) override { probe_->init(e); }
  void plan_out(Sim& e, NodeId u, OutPlan& plan) override {
    probe_->plan_out(e, u, plan);
  }
  void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
               InPlan& plan) override {
    probe_->expected = scan(e, v);
    probe_->plan_in(e, v, offers, plan);
  }
  void update_state(Sim& e, NodeId v) override {
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
  std::int64_t plan_in_calls = 0;
  std::int64_t mismatches = 0;
  std::int64_t update_state_calls = 0;
  std::int64_t dx_update_calls = 0;
  std::int64_t nonempty_update_spans = 0;
  std::int64_t moves = 0;
  std::uint64_t node_state_sum = 0;    ///< over every node at the end
  std::uint64_t packet_state_sum = 0;  ///< over every packet at the end
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
    t.plan_in_calls += h->probe().plan_in_calls;
    t.mismatches += h->probe().mismatches;
    t.update_state_calls += h->update_state_calls;
    t.dx_update_calls += h->probe().update_calls;
    t.nonempty_update_spans += h->probe().nonempty_update_spans;
  }
  t.moves = e.total_moves();
  for (NodeId v = 0; v < e.mesh().num_nodes(); ++v)
    t.node_state_sum += e.node_state(v);
  for (const Packet& pk : e.all_packets()) t.packet_state_sum += pk.state;
  return t;
}

Tally run(EngineKind kind, QueueLayout layout, DxAlgorithm::Update update) {
  const Mesh mesh = Mesh::square(12);
  const Workload w = random_hh(mesh, 2, 5);
  constexpr int k = 2;
  constexpr Step stall_limit = 64;
  if (kind == EngineKind::Reference) {
    ProbeHarness harness(layout, update);
    ReferenceEngine e(mesh, k, stall_limit, harness);
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
      EXPECT_GT(t.plan_in_calls, 0) << label;
      EXPECT_EQ(t.mismatches, 0) << label;
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

}  // namespace
}  // namespace mr
