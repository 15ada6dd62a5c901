#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/reference_engine.hpp"
#include "routing/dimension_order.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "traffic/source.hpp"

namespace mr {
namespace {

Engine::Config cfg(int k) {
  Engine::Config c;
  c.queue_capacity = k;
  return c;
}

TEST(Engine, SinglePacketStraightLine) {
  const Mesh m = Mesh::square(8);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(0, 0), m.id_of(5, 0));
  e.prepare();
  const Step steps = e.run(100);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_EQ(steps, 5);  // one hop per step, delivered on arrival
  EXPECT_EQ(e.packet(0).delivered_at, 5);
}

TEST(Engine, PacketAtDestinationDeliversImmediately) {
  const Mesh m = Mesh::square(4);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(2, 2), m.id_of(2, 2));
  e.prepare();
  EXPECT_TRUE(e.all_delivered());
  EXPECT_EQ(e.packet(0).delivered_at, 0);
}

TEST(Engine, DimensionOrderPathIsRowFirst) {
  const Mesh m = Mesh::square(8);
  DimensionOrderRouter algo;
  Engine e(m, cfg(2), algo);
  e.add_packet(m.id_of(1, 1), m.id_of(4, 6));
  e.prepare();

  // Track the trajectory via an observer.
  struct Tracker : StepObserver {
    std::vector<NodeId> path;
    void on_step(const Sim&, const StepDigest& d) override {
      for (const MoveRecord& m : d.moves) path.push_back(m.to);
    }
  };
  // Observer must be added before prepare, so rebuild.
  Engine e2(m, cfg(2), algo);
  e2.add_packet(m.id_of(1, 1), m.id_of(4, 6));
  Tracker tracker;
  e2.add_observer(&tracker);
  e2.prepare();
  e2.run(100);
  ASSERT_TRUE(e2.all_delivered());
  ASSERT_EQ(tracker.path.size(), 8u);  // 3 east + 5 north
  EXPECT_EQ(tracker.path[0], m.id_of(2, 1));
  EXPECT_EQ(tracker.path[2], m.id_of(4, 1));
  EXPECT_EQ(tracker.path[3], m.id_of(4, 2));
  EXPECT_EQ(tracker.path.back(), m.id_of(4, 6));
}

TEST(Engine, QueueCapacityIsRespected) {
  // Many packets funnel through one column; with k=2 the engine must never
  // observe more than 2 packets in a queue.
  const Mesh m = Mesh::square(8);
  DimensionOrderRouter algo;
  Engine e(m, cfg(2), algo);
  for (std::int32_t c = 0; c < 8; ++c)
    e.add_packet(m.id_of(c, 0), m.id_of(7, 7));  // not a permutation: h-h-ish
  e.prepare();
  e.run(500);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_LE(e.max_occupancy_seen(), 2);
}

TEST(Engine, MinimalityEnforced) {
  // An algorithm that tries an unprofitable move must be rejected.
  class BadAlgo : public Algorithm {
   public:
    std::string name() const override { return "bad"; }
    void plan_out(Sim& e, NodeId u, OutPlan& plan) override {
      // Schedule the packet *away* from its destination.
      const PacketId p = e.packets_at(u)[0];
      const DirMask good = e.profitable_mask(p);
      for (Dir d : kAllDirs) {
        if (!mask_has(good, d) && e.mesh().neighbor(u, d) != kInvalidNode) {
          plan.schedule(d, p);
          return;
        }
      }
    }
    void plan_in(Sim&, NodeId, std::span<const Offer>,
                 InPlan& plan) override {
      plan.reset();
    }
  };
  const Mesh m = Mesh::square(4);
  BadAlgo algo;
  Engine e(m, cfg(1), algo);
  // Interior start so an unprofitable outlink with a live neighbour exists.
  e.add_packet(m.id_of(1, 1), m.id_of(3, 3));
  e.prepare();
  EXPECT_THROW(e.step_once(), InvariantViolation);
}

TEST(Engine, DeterministicFingerprints) {
  const Mesh m = Mesh::square(10);
  auto run_and_fingerprint = [&](Step steps) {
    auto algo = make_algorithm("adaptive-alternate");
    Engine e(m, cfg(1), *algo);
    int id = 0;
    for (std::int32_t c = 0; c < 10; ++c, ++id)
      e.add_packet(m.id_of(c, 0), m.id_of(9 - c, 9));
    e.prepare();
    for (Step t = 0; t < steps; ++t) e.step_once();
    return e.fingerprint();
  };
  EXPECT_EQ(run_and_fingerprint(7), run_and_fingerprint(7));
  EXPECT_NE(run_and_fingerprint(3), run_and_fingerprint(7));
}

TEST(Engine, DelayedInjection) {
  const Mesh m = Mesh::square(6);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(0, 0), m.id_of(3, 0), /*injected_at=*/5);
  e.prepare();
  e.step_once();  // t=1: nothing present yet
  EXPECT_EQ(e.delivered_count(), 0u);
  EXPECT_EQ(e.occupancy(m.id_of(0, 0)), 0);
  e.run(100);
  EXPECT_TRUE(e.all_delivered());
  // Appears at the start of step 5 and moves that same step: 3 hops land
  // it at steps 5, 6, 7.
  EXPECT_EQ(e.packet(0).delivered_at, 7);
}

TEST(Engine, InjectionWaitsWhenQueueFull) {
  // Two packets at the same source with k=1: the second waits outside the
  // network until the first departs (§5 dynamic h-h setting).
  const Mesh m = Mesh::square(6);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(0, 0), m.id_of(4, 0));
  e.add_packet(m.id_of(0, 0), m.id_of(0, 4));
  e.prepare();
  EXPECT_EQ(e.occupancy(m.id_of(0, 0)), 1);
  e.run(100);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_LE(e.max_occupancy_seen(), 1);
}

TEST(Engine, ExchangeOutsideInterceptorThrows) {
  const Mesh m = Mesh::square(4);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(0, 0), m.id_of(3, 0));
  e.add_packet(m.id_of(0, 1), m.id_of(3, 1));
  e.prepare();
  EXPECT_THROW(e.exchange_destinations(0, 1), InvariantViolation);
}

TEST(Engine, InterceptorExchangeSwapsDestinations) {
  const Mesh m = Mesh::square(6);
  class Swapper : public StepInterceptor {
   public:
    bool done = false;
    void after_schedule(Sim& e, std::span<const ScheduledMove>) override {
      if (!done) {
        e.exchange_destinations(0, 1);
        done = true;
      }
    }
  };
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  // Both packets northeast-bound with overlapping profitable sets, so the
  // swap keeps scheduled moves minimal.
  e.add_packet(m.id_of(0, 0), m.id_of(4, 5));
  e.add_packet(m.id_of(1, 0), m.id_of(5, 4));
  Swapper swapper;
  e.set_interceptor(&swapper);
  e.prepare();
  e.step_once();
  EXPECT_EQ(e.packet(0).dest, m.id_of(5, 4));
  EXPECT_EQ(e.packet(1).dest, m.id_of(4, 5));
  EXPECT_EQ(e.exchange_count(), 1u);
}

/// Pathological router that never schedules or accepts anything — the
/// whole network is one big deadlock from step 1.
class FrozenRouter : public Algorithm {
 public:
  std::string name() const override { return "frozen"; }
  void plan_out(Sim&, NodeId, OutPlan&) override {}
  void plan_in(Sim&, NodeId, std::span<const Offer>,
               InPlan& plan) override {
    (void)plan;  // arrives reset: reject all
  }
};

TEST(Engine, StallDetectedWithPacketsWaitingOutside) {
  // Two packets share a source with k=1: the second never enters the
  // network and sits in the external buffer. A deadlocked network must
  // still be reported as stalled — packets waiting outside can only enter
  // once something moves, so they are not progress.
  const Mesh m = Mesh::square(4);
  FrozenRouter algo;
  Engine::Config config = cfg(1);
  config.stall_limit = 5;
  Engine e(m, config, algo);
  e.add_packet(m.id_of(0, 0), m.id_of(3, 0));
  e.add_packet(m.id_of(0, 0), m.id_of(0, 3));
  e.prepare();
  const Step steps = e.run(1000);
  EXPECT_TRUE(e.stalled());
  EXPECT_FALSE(e.all_delivered());
  EXPECT_LE(steps, 6);  // aborted at the stall limit, not the step cap
}

TEST(Engine, FutureInjectionIsNotAStall) {
  // An idle network awaiting a future-dated injection is not stalled: the
  // pending injection is exogenous progress.
  const Mesh m = Mesh::square(4);
  DimensionOrderRouter algo;
  Engine::Config config = cfg(1);
  config.stall_limit = 10;
  Engine e(m, config, algo);
  e.add_packet(m.id_of(0, 0), m.id_of(3, 0), /*injected_at=*/50);
  e.prepare();
  e.run(1000);
  EXPECT_FALSE(e.stalled());
  EXPECT_TRUE(e.all_delivered());
  // Enters its queue at the start of step 50, then three hops.
  EXPECT_EQ(e.packet(0).delivered_at, 52);
}

/// Makes one malformed out-plan at the node holding packet 0 and plans
/// nothing anywhere else.
class MalformedPlanRouter : public Algorithm {
 public:
  enum class Fault { TwoOutlinks, PacketElsewhere, OffMeshEdge };
  explicit MalformedPlanRouter(Fault fault) : fault_(fault) {}
  std::string name() const override { return "malformed-plan"; }
  void plan_out(Sim& e, NodeId u, OutPlan& plan) override {
    const std::span<const PacketId> here = e.packets_at(u);
    if (here.empty() || here[0] != 0) return;
    switch (fault_) {
      case Fault::TwoOutlinks:  // both outlinks are profitable
        plan.schedule(Dir::North, 0);
        plan.schedule(Dir::East, 0);
        break;
      case Fault::PacketElsewhere:
        plan.schedule(Dir::North, 1);
        break;
      case Fault::OffMeshEdge:  // u is on the west edge
        plan.schedule(Dir::West, 0);
        break;
    }
  }
  void plan_in(Sim&, NodeId, std::span<const Offer>, InPlan&) override {}

 private:
  Fault fault_;
};

/// Expects `step` to throw an InvariantViolation whose text contains
/// `text`.
void expect_rejected(const std::function<void()>& step,
                     const std::string& text) {
  try {
    step();
  } catch (const InvariantViolation& ex) {
    EXPECT_NE(std::string(ex.what()).find(text), std::string::npos)
        << ex.what();
    return;
  }
  ADD_FAILURE() << "no InvariantViolation";
}

TEST(Engine, MalformedOutPlansAreRejected) {
  // Packet 0 sits at (0,1) on the west edge, bound north-east; packet 1 at
  // (4,4), two bands away when the mesh is cut into three. Each engine
  // must reject the plan in phase (a) of step 1 with the same text.
  using Fault = MalformedPlanRouter::Fault;
  const Mesh m = Mesh::square(6);
  const NodeId a = m.id_of(0, 1);
  const NodeId b = m.id_of(4, 4);
  const std::vector<std::pair<Fault, std::string>> cases = {
      {Fault::TwoOutlinks, "packet 0 scheduled on two outlinks"},
      {Fault::PacketElsewhere,
       "node " + std::to_string(a) + " scheduled packet 1 which is at node " +
           std::to_string(b)},
      {Fault::OffMeshEdge,
       "node " + std::to_string(a) + " scheduled packet off the mesh edge"}};
  for (const auto& [fault, text] : cases) {
    SCOPED_TRACE(text);
    const auto add = [&](auto& e) {
      e.add_packet(a, m.id_of(3, 4));
      e.add_packet(b, m.id_of(1, 0));
      e.prepare();
    };
    MalformedPlanRouter algo(fault);
    Engine one(m, cfg(1), algo);
    add(one);
    expect_rejected([&] { one.step_once(); }, text);

    Engine::Config banded = cfg(1);
    banded.shards = 3;
    banded.threads = 2;
    Engine three(m, banded, [fault] {
      return std::make_unique<MalformedPlanRouter>(fault);
    });
    ASSERT_EQ(three.shard_count(), 3);
    ASSERT_EQ(three.thread_count(), 2);
    add(three);
    expect_rejected([&] { three.step_once(); }, text);

    ReferenceEngine ref(m, 1, kDefaultStallLimit, algo);
    add(ref);
    expect_rejected([&] { ref.step_once(); }, text);
  }
}

/// Forwards to a registry router and records each step's update_state
/// calls, in call order.
class UpdateProbe : public Algorithm {
 public:
  explicit UpdateProbe(const std::string& router)
      : inner_(make_algorithm(router)) {}
  std::string name() const override { return inner_->name(); }
  QueueLayout queue_layout() const override { return inner_->queue_layout(); }
  bool minimal() const override { return inner_->minimal(); }
  int max_stray() const override { return inner_->max_stray(); }
  bool plan_out_reads_queue_only() const override {
    return inner_->plan_out_reads_queue_only();
  }
  void init(Sim& e) override { inner_->init(e); }
  void plan_out(Sim& e, NodeId u, OutPlan& plan) override {
    inner_->plan_out(e, u, plan);
  }
  void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
               InPlan& plan) override {
    inner_->plan_in(e, v, offers, plan);
  }
  void update_state(Sim& e, NodeId v) override {
    visited.push_back(v);
    inner_->update_state(e, v);
  }

  std::vector<NodeId> visited;

 private:
  std::unique_ptr<Algorithm> inner_;
};

TEST(Engine, UpdateVisitsMatchReference) {
  // Phase (e) visits every node that held, sent or received a packet, once
  // each, ascending: the merged active list on one band and on three must
  // give the reference's full-scan order on every step. Open-loop traffic
  // at 0.9 per node per step saturates an 11x11 network, so nodes activate
  // and drain on every step.
  for (const bool torus : {false, true}) {
    const Mesh mesh = Mesh::square(11, torus);
    TrafficSpec spec;
    spec.rate = 0.9;
    spec.seed = 41;
    BernoulliSource source(mesh, spec);
    const Workload traffic = materialize_traffic(source, 1, 60);
    for (const std::string router :
         {"dimension-order", "bounded-dimension-order"}) {
      SCOPED_TRACE(router + (torus ? " torus" : " mesh"));
      constexpr int k = 2;
      constexpr Step kStallLimit = 16;
      UpdateProbe ref_probe(router);
      ReferenceEngine ref(mesh, k, kStallLimit, ref_probe);
      std::vector<std::unique_ptr<UpdateProbe>> probes;
      std::vector<std::unique_ptr<Engine>> engines;
      for (const int shards : {1, 3}) {
        probes.push_back(std::make_unique<UpdateProbe>(router));
        Engine::Config c = cfg(k);
        c.stall_limit = kStallLimit;
        c.shards = shards;
        engines.push_back(std::make_unique<Engine>(mesh, c, *probes.back()));
      }
      for (const Demand& d : traffic) {
        ref.add_packet(d.source, d.dest, d.injected_at);
        for (auto& e : engines) e->add_packet(d.source, d.dest, d.injected_at);
      }
      ref.prepare();
      for (auto& e : engines) e->prepare();
      std::int64_t visits = 0;
      while (!ref.all_delivered() && !ref.stalled() && ref.step() < 2000) {
        ref_probe.visited.clear();
        for (auto& p : probes) p->visited.clear();
        ref.step_once();
        for (auto& e : engines) e->step_once();
        const std::vector<NodeId>& want = ref_probe.visited;
        ASSERT_TRUE(std::is_sorted(want.begin(), want.end()));
        ASSERT_EQ(std::adjacent_find(want.begin(), want.end()), want.end());
        for (const auto& p : probes)
          ASSERT_EQ(p->visited, want) << "step " << ref.step();
        visits += static_cast<std::int64_t>(want.size());
      }
      for (auto& e : engines) {
        EXPECT_EQ(e->step(), ref.step());
        EXPECT_EQ(e->fingerprint(), ref.fingerprint());
      }
      // The traffic kept most of the mesh busy.
      EXPECT_GT(visits, 121 * 60);
    }
  }
}

}  // namespace
}  // namespace mr
