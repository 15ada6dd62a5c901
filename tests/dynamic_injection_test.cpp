// Dynamic injection semantics (§5's h-h discussion): packets appear at
// their source at the start of their injection step, wait outside the
// network while the queue is full, re-enter in deterministic (id) order,
// and never depend on destination addresses for their timing. The
// injection-order cases run in lock-step with the ReferenceEngine, which
// offers every outside packet in global id order each step; the saturated
// case pins that order under a backlog of thousands of waiting packets.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/oracles.hpp"
#include "check/reference_engine.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "topo/mesh.hpp"
#include "traffic/source.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

/// Records StepDigest::injections_waiting, prepare() included.
class WaitingLog final : public StepObserver {
 public:
  void on_prepare(const Sim&, const StepDigest& d) override {
    waiting.push_back(d.injections_waiting);
  }
  void on_step(const Sim&, const StepDigest& d) override {
    waiting.push_back(d.injections_waiting);
  }
  std::vector<std::int64_t> waiting;
};

using ExchangePairs = std::vector<std::pair<PacketId, PacketId>>;
/// Picks the pairs to exchange from the configuration phase (b) sees.
using ExchangePick = std::function<ExchangePairs(const Sim&)>;

/// Phase (b) hook exchanging the destinations of the packet pairs `pick`
/// names at one step.
class ExchangeAt final : public StepInterceptor {
 public:
  ExchangeAt(Step step, ExchangePick pick)
      : step_(step), pick_(std::move(pick)) {}
  void after_schedule(Sim& e, std::span<const ScheduledMove>) override {
    if (e.step() != step_) return;
    for (const auto& [a, b] : pick_(e)) e.exchange_destinations(a, b);
  }

 private:
  Step step_;
  ExchangePick pick_;
};

struct LockstepOptions {
  std::string faults;  ///< fault schedule grammar; empty for none
  /// Sees the engine after prepare() and after each step.
  std::function<void(const Engine&)> inspect;
  /// Destination exchanges in phase (b) of `exchange_step` (one band only).
  Step exchange_step = 0;
  ExchangePick exchanges;
  int shards = 1;  ///< row bands of the optimized engine, stepped serially
  Step max_steps = 512;
  /// Accept a run that ends stalled (both engines must agree on the step)
  /// instead of requiring every packet delivered.
  bool may_stall = false;
};

/// Runs the Engine and the ReferenceEngine side by side on `demands` and
/// requires equal fingerprints and digest streams after prepare() and after
/// every step. Returns the engine's per-step injections_waiting.
std::vector<std::int64_t> expect_lockstep(const Mesh& mesh,
                                          const std::string& router, int k,
                                          const Workload& demands,
                                          const LockstepOptions& options = {}) {
  auto algo_opt = make_algorithm(router);
  auto algo_ref = make_algorithm(router);
  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = 64;
  config.shards = options.shards;
  Engine opt(mesh, config, *algo_opt);
  ReferenceEngine ref(mesh, k, config.stall_limit, *algo_ref);
  if (!options.faults.empty()) {
    FaultSchedule schedule;
    std::string error;
    EXPECT_TRUE(parse_fault_schedule(options.faults, &schedule, &error))
        << error;
    opt.set_fault_schedule(schedule);
    ref.set_fault_schedule(schedule);
  }
  ExchangeAt hook_opt(options.exchange_step, options.exchanges);
  ExchangeAt hook_ref(options.exchange_step, options.exchanges);
  if (options.exchanges) {
    opt.set_interceptor(&hook_opt);
    ref.set_interceptor(&hook_ref);
  }
  DigestHasher hash_opt, hash_ref;
  WaitingLog log_opt, log_ref;
  opt.add_observer(&hash_opt);
  opt.add_observer(&log_opt);
  ref.add_observer(&hash_ref);
  ref.add_observer(&log_ref);
  for (const Demand& d : demands) {
    opt.add_packet(d.source, d.dest, d.injected_at);
    ref.add_packet(d.source, d.dest, d.injected_at);
  }
  opt.prepare();
  ref.prepare();
  EXPECT_EQ(opt.fingerprint(), ref.fingerprint()) << "prepare() diverged";
  if (options.inspect) options.inspect(opt);
  while (opt.step() < options.max_steps) {
    const bool more = opt.step_once();
    EXPECT_EQ(more, ref.step_once()) << "drain diverged at step " << opt.step();
    if (!more) break;
    EXPECT_EQ(opt.fingerprint(), ref.fingerprint())
        << "fingerprint diverged at step " << opt.step();
    EXPECT_EQ(hash_opt.hash(), hash_ref.hash())
        << "digest stream diverged at step " << opt.step();
    if (options.inspect) options.inspect(opt);
    EXPECT_EQ(opt.stalled(), ref.stalled())
        << "stall diverged at step " << opt.step();
    if (opt.stalled()) break;
  }
  if (!options.may_stall) {
    EXPECT_TRUE(opt.all_delivered());
  }
  EXPECT_EQ(log_opt.waiting, log_ref.waiting);
  return log_opt.waiting;
}

TEST(DynamicInjection, FifoAmongWaiters) {
  // k = 1, three packets at one source: they enter in id order as the
  // queue frees, one per step.
  const Mesh mesh = Mesh::square(8);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.queue_capacity = 1;
  Engine e(mesh, config, *algo);
  const PacketId a = e.add_packet(mesh.id_of(0, 0), mesh.id_of(5, 0));
  const PacketId b = e.add_packet(mesh.id_of(0, 0), mesh.id_of(6, 0));
  const PacketId c = e.add_packet(mesh.id_of(0, 0), mesh.id_of(7, 0));
  e.prepare();
  // Only `a` is inside the network before step 1.
  EXPECT_EQ(e.occupancy(mesh.id_of(0, 0)), 1);
  e.run(100);
  ASSERT_TRUE(e.all_delivered());
  // Strict pipeline: a, then b, then c — each one step apart on the wire.
  EXPECT_LT(e.packet(a).delivered_at, e.packet(b).delivered_at);
  EXPECT_LT(e.packet(b).delivered_at, e.packet(c).delivered_at);
}

TEST(DynamicInjection, ScheduledFutureStepsHonoured) {
  const Mesh mesh = Mesh::square(8);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.queue_capacity = 4;
  Engine e(mesh, config, *algo);
  const PacketId early = e.add_packet(mesh.id_of(0, 0), mesh.id_of(3, 0), 1);
  const PacketId late = e.add_packet(mesh.id_of(0, 1), mesh.id_of(3, 1), 10);
  e.prepare();
  e.run(100);
  ASSERT_TRUE(e.all_delivered());
  EXPECT_EQ(e.packet(early).delivered_at, 3);   // appears at t=1, 3 hops
  EXPECT_EQ(e.packet(late).delivered_at, 12);   // appears at t=10
}

TEST(DynamicInjection, MixedWithStaticTraffic) {
  const Mesh mesh = Mesh::square(10);
  auto algo = make_algorithm("bounded-dimension-order");
  Engine::Config config;
  config.queue_capacity = 1;
  Engine e(mesh, config, *algo);
  // Static permutation plus a staggered second wave (a 2-2 problem in the
  // dynamic setting).
  for (const Demand& d : random_permutation(mesh, 1))
    e.add_packet(d.source, d.dest, 0);
  for (const Demand& d : random_permutation(mesh, 2))
    e.add_packet(d.source, d.dest, 5);
  e.prepare();
  e.run(10000);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_LE(e.max_occupancy_seen(), 1);
}

TEST(DynamicInjection, HeavyHotspotWithTinyQueues) {
  // 6 packets per source at k = 1: five wait outside; delivery still
  // completes and occupancy never exceeds k.
  const Mesh mesh = Mesh::square(8);
  auto algo = make_algorithm("bounded-dimension-order");
  Engine::Config config;
  config.queue_capacity = 1;
  Engine e(mesh, config, *algo);
  for (int copy = 0; copy < 6; ++copy)
    for (std::int32_t c = 0; c < 8; ++c)
      e.add_packet(mesh.id_of(c, 0), mesh.id_of(c, 7 - (copy % 3)));
  e.prepare();
  e.run(10000);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_LE(e.max_occupancy_seen(), 1);
}

TEST(DynamicInjection, StallPolicyOnPendingInjections) {
  // A deadlocked pair (head-on at k = 1 central queues) while a far-future
  // injection is still scheduled. The batch stall policy defers the check
  // until the injection buffer drains — an open-loop pump keeps that
  // buffer non-empty forever, so the run would spin to its step budget.
  // The opt-in open-loop policy counts those no-progress steps and trips
  // the stall limit.
  const Mesh mesh = Mesh::square(8);
  auto run_deadlock = [&](bool open_loop) {
    auto algo = make_algorithm("dimension-order");
    Engine::Config config;
    config.queue_capacity = 1;
    config.stall_limit = 32;
    config.stall_counts_pending_injections = open_loop;
    Engine e(mesh, config, *algo);
    e.add_packet(mesh.id_of(2, 2), mesh.id_of(5, 2));
    e.add_packet(mesh.id_of(3, 2), mesh.id_of(0, 2));
    e.add_packet(mesh.id_of(0, 0), mesh.id_of(1, 0), 100000);
    e.prepare();
    const Step last = e.run(500);
    return std::pair<bool, Step>(e.stalled(), last);
  };
  const auto batch = run_deadlock(false);
  EXPECT_FALSE(batch.first);       // deferred: pending injection masks it
  EXPECT_EQ(batch.second, 500);    // ... so the run burns its whole budget
  const auto open_loop = run_deadlock(true);
  EXPECT_TRUE(open_loop.first);
  EXPECT_EQ(open_loop.second, 32);  // trips exactly at the stall limit
}

TEST(DynamicInjection, TimingIsDestinationIndependent) {
  // §5's requirement: swap the destinations of two same-source waiting
  // packets — their injection steps must not change.
  const Mesh mesh = Mesh::square(8);
  auto run_arrival_steps = [&](NodeId d1, NodeId d2) {
    auto algo = make_algorithm("dimension-order");
    Engine::Config config;
    config.queue_capacity = 1;
    Engine e(mesh, config, *algo);
    e.add_packet(mesh.id_of(0, 0), d1);
    e.add_packet(mesh.id_of(0, 0), d2);
    e.prepare();
    // Track when packet 1 (the waiter) enters the network: its arrived_at
    // is stamped at injection.
    e.run(100);
    return e.packet(1).injected_at + 0 * e.packet(1).delivered_at;
  };
  // Destinations northeast in both orders: same profitable geometry.
  const NodeId x = mesh.id_of(6, 7);
  const NodeId y = mesh.id_of(7, 6);
  EXPECT_EQ(run_arrival_steps(x, y), run_arrival_steps(y, x));
}

TEST(DynamicInjection, PerInlinkSlabOrderIsIdOrderAcrossQueues) {
  // Two sources, each with packets for two inlink queues (row movement
  // joins an East/West inlink queue, column movement a North/South one),
  // with ids interleaved across the queues and across the sources.
  // Injection runs source by source, yet each source's slab must receive
  // its packets in id order. No other packet passes through a or b, so
  // their slabs stay id-sorted for the whole run.
  const Mesh mesh = Mesh::square(8);
  const NodeId a = mesh.id_of(1, 1);
  const NodeId b = mesh.id_of(2, 5);
  Workload w;
  for (int i = 0; i < 4; ++i) {
    w.push_back(Demand{b, mesh.id_of(7, 5)});  // row queue at b
    w.push_back(Demand{a, mesh.id_of(6, 1)});  // row queue at a
    w.push_back(Demand{b, mesh.id_of(2, 0)});  // column queue at b
    w.push_back(Demand{a, mesh.id_of(1, 7)});  // column queue at a
  }
  const auto slab = [](const Engine& e, NodeId u) {
    const std::span<const PacketId> q = e.packets_at(u);
    return std::vector<PacketId>(q.begin(), q.end());
  };
  bool checked_prepare = false;
  LockstepOptions options;
  options.inspect = [&](const Engine& e) {
    for (NodeId u : {a, b}) {
      const std::vector<PacketId> q = slab(e, u);
      EXPECT_TRUE(std::is_sorted(q.begin(), q.end()))
          << "slab of node " << u << " at step " << e.step();
    }
    if (e.step() != 0) return;
    checked_prepare = true;
    // k = 2 per inlink queue: the first two packets of each queue are in,
    // interleaved in id order; the other eight wait.
    EXPECT_EQ(slab(e, a), (std::vector<PacketId>{1, 3, 5, 7}));
    EXPECT_EQ(slab(e, b), (std::vector<PacketId>{0, 2, 4, 6}));
  };
  const auto waiting =
      expect_lockstep(mesh, "bounded-dimension-order", 2, w, options);
  EXPECT_TRUE(checked_prepare);
  ASSERT_FALSE(waiting.empty());
  EXPECT_EQ(waiting.front(), 8);
}

TEST(DynamicInjection, LateSmallerIdJoinsAheadOfWaitingLargerId) {
  // Packet 0 becomes due at step 3, while packet 3 (same source, due at
  // step 0) is still waiting for the k = 1 queue. The merge must offer
  // packet 0 first, as a global id-order pass would.
  const Mesh mesh = Mesh::square(8);
  const NodeId s = mesh.id_of(0, 2);
  const NodeId d = mesh.id_of(5, 2);
  Workload w;
  w.push_back(Demand{s, d, 3});
  for (int i = 0; i < 3; ++i) w.push_back(Demand{s, d, 0});
  w.push_back(Demand{mesh.id_of(4, 4), mesh.id_of(0, 0), 0});
  std::vector<Step> entered(4, -1);
  LockstepOptions options;
  options.inspect = [&](const Engine& e) {
    for (PacketId p = 0; p < 4; ++p)
      if (entered[p] < 0 && e.packet(p).location == s) entered[p] = e.step();
  };
  const auto waiting = expect_lockstep(mesh, "dimension-order", 1, w, options);
  // Each packet holds the k = 1 queue for two steps (the next node frees
  // up one step later), so the source admits one packet every other step:
  // 1 at prepare, 2 at step 2, then 0 — due at step 3, still behind 2 —
  // at step 4 ahead of the older waiter 3, which enters at step 6.
  EXPECT_EQ(entered, (std::vector<Step>{4, 0, 2, 6}));
  ASSERT_GE(waiting.size(), 7u);
  EXPECT_EQ(std::vector<std::int64_t>(waiting.begin(), waiting.begin() + 7),
            (std::vector<std::int64_t>{2, 2, 1, 2, 1, 1, 0}));
}

TEST(DynamicInjection, FaultDeferredSelfDeliveryWaitsForItsNode) {
  // A source == dest packet due while its node is down is deferred, not
  // delivered, until the window closes; it never counts as waiting for a
  // full queue. A same-source packet with a real destination is deferred
  // alongside it.
  const Mesh mesh = Mesh::square(6);
  const NodeId s = 14;
  Workload w;
  w.push_back(Demand{s, s, 2});
  w.push_back(Demand{s, 27, 2});
  w.push_back(Demand{3, 32, 1});
  Step delivered_at = -1;
  std::int64_t deferred_steps = 0;
  LockstepOptions options;
  options.faults = "node:14@1-30";
  options.inspect = [&](const Engine& e) {
    delivered_at = e.packet(0).delivered_at;
    if (e.fault_deferred_this_step() == 2) ++deferred_steps;
  };
  const auto waiting = expect_lockstep(mesh, "dimension-order", 2, w, options);
  EXPECT_EQ(delivered_at, 30);
  EXPECT_EQ(deferred_steps, 28);  // steps 2..29
  for (const std::int64_t n : waiting) EXPECT_EQ(n, 0);
}

TEST(DynamicInjection, ExchangedWaitingPacketsJoinTheirNewQueues) {
  // Phase (b) may exchange the destinations of packets still waiting
  // outside the network. Their injection queue follows the new
  // destination: 3 and 6 swap a row queue for a column queue, and 1 is
  // handed its own source as destination, so it is delivered at injection
  // instead of entering a queue.
  const Mesh mesh = Mesh::square(8);
  const NodeId s = mesh.id_of(1, 1);
  const NodeId t = mesh.id_of(0, 4);
  Workload w;
  w.push_back(Demand{s, mesh.id_of(6, 1)});  // 0: row, in at prepare
  w.push_back(Demand{s, mesh.id_of(5, 1)});  // 1: row, waits
  w.push_back(Demand{s, mesh.id_of(1, 5)});  // 2: column, in at prepare
  w.push_back(Demand{s, mesh.id_of(1, 6)});  // 3: column, waits
  w.push_back(Demand{t, mesh.id_of(6, 4)});  // 4: row, in at prepare
  w.push_back(Demand{t, s});                 // 5: row, waits
  w.push_back(Demand{s, mesh.id_of(7, 1)});  // 6: row, waits
  LockstepOptions options;
  options.exchange_step = 1;
  options.exchanges = [](const Sim&) { return ExchangePairs{{1, 5}, {3, 6}}; };
  Step self_delivered_at = -1;
  bool entered_network = false;
  options.inspect = [&](const Engine& e) {
    self_delivered_at = e.packet(1).delivered_at;
    entered_network |= e.packet(1).location != kInvalidNode;
  };
  const auto waiting =
      expect_lockstep(mesh, "bounded-dimension-order", 1, w, options);
  ASSERT_FALSE(waiting.empty());
  EXPECT_EQ(waiting.front(), 4);  // 1, 3 and 6 at s; 5 at t
  EXPECT_EQ(self_delivered_at, 2);
  EXPECT_FALSE(entered_network);
}

/// Packets of `e` waiting outside the network, by source, ascending by id.
std::map<NodeId, std::vector<PacketId>> waiting_by_source(const Sim& e) {
  std::map<NodeId, std::vector<PacketId>> by_source;
  for (const Packet& pk : e.all_packets())
    if (!pk.delivered() && pk.location == kInvalidNode &&
        pk.injected_at <= e.step())
      by_source[pk.source].push_back(pk.id);
  return by_source;
}

/// The injection queue a packet from `s` to `t` joins under the per-inlink
/// layout (mirror of the engines' rule: the inlink opposite the first
/// profitable direction in E, W, N, S order).
int inlink_tag(const Sim& e, NodeId s, NodeId t) {
  const DirMask m = e.topology().profitable_dirs(s, t);
  for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South})
    if (mask_has(m, d)) return dir_index(opposite(d));
  return dir_index(Dir::South);
}

TEST(DynamicInjection, SaturatedBacklogMatchesReference) {
  // Bernoulli traffic at 0.9 packets per node per step for 300 steps, far
  // above what an 8x8 mesh accepts (about 0.5), so thousands of packets
  // wait outside full source queues. The engine must offer them exactly as
  // the reference's global id-order pass does, on one band and on three,
  // through a fault window that takes down two backlogged sources, and
  // (one band) through exchanges that re-tag packets deep in the longest
  // source FIFO. Central queues at k = 1 deadlock within a few steps of
  // such a load, so dimension-order runs its whole injection window with
  // every source blocked, and bounded-dimension-order at k = 1 stalls late
  // in the drain: a stall both engines reach on the same step is a pass.
  const Mesh mesh = Mesh::square(8);
  TrafficSpec spec;
  spec.rate = 0.9;
  spec.seed = 23;
  BernoulliSource source(mesh, spec);
  const Workload traffic = materialize_traffic(source, 1, 300);
  constexpr Step kExchangeStep = 200;
  const std::vector<std::pair<std::string, int>> configs = {
      {"dimension-order", 1},
      {"bounded-dimension-order", 1},
      {"bounded-dimension-order", 2},
      {"emps", 1},
      {"emps", 2}};
  for (const auto& [router, k] : configs) {
    for (const int shards : {1, 3}) {
      SCOPED_TRACE(router + " k=" + std::to_string(k) +
                   " shards=" + std::to_string(shards));
      LockstepOptions options;
      options.shards = shards;
      options.max_steps = 20000;
      options.may_stall = true;
      options.faults = "node:9@120-150,node:45@140-170";
      std::size_t deep_position = 0;
      std::size_t exchanged = 0;
      if (shards == 1) {
        options.exchange_step = kExchangeStep;
        options.exchanges = [&deep_position, &exchanged](const Sim& e) {
          // In the longest FIFO, hand the packet three quarters down a
          // destination with another per-inlink injection queue (under the
          // central layout every packet joins the one queue, so only the
          // next exchange re-tags) and the packet halfway down its own
          // source as destination, so it is delivered from the middle of
          // the FIFO.
          const auto by_source = waiting_by_source(e);
          const std::vector<PacketId>* longest = nullptr;
          NodeId s = kInvalidNode;
          for (const auto& [u, ids] : by_source)
            if (longest == nullptr || ids.size() > longest->size()) {
              longest = &ids;
              s = u;
            }
          ExchangePairs pairs;
          if (longest == nullptr) return pairs;
          const PacketId deep = (*longest)[longest->size() * 3 / 4];
          const PacketId mid = (*longest)[longest->size() / 2];
          deep_position = longest->size() * 3 / 4;
          const auto& pk = e.all_packets();
          PacketId retag = kInvalidPacket;
          PacketId self = kInvalidPacket;
          for (const auto& [u, ids] : by_source) {
            if (u == s) continue;
            for (const PacketId p : ids) {
              if (retag == kInvalidPacket && inlink_tag(e, s, pk[p].dest) !=
                                                 inlink_tag(e, s, pk[deep].dest))
                retag = p;
              if (self == kInvalidPacket && p != retag && pk[p].dest == s)
                self = p;
            }
          }
          if (retag != kInvalidPacket) pairs.emplace_back(deep, retag);
          if (self != kInvalidPacket) pairs.emplace_back(mid, self);
          exchanged = pairs.size();
          return pairs;
        };
      }
      const std::vector<std::int64_t> waiting =
          expect_lockstep(mesh, router, k, traffic, options);
      ASSERT_GT(waiting.size(), 300u);
      EXPECT_GT(*std::max_element(waiting.begin(), waiting.end()), 1000);
      if (shards == 1) {
        EXPECT_GE(deep_position, 20u);
        EXPECT_EQ(exchanged, 2u);
      }
    }
  }
}

}  // namespace
}  // namespace mr
