// Engine and ReferenceEngine in lock-step under a phase-(b) interceptor.
//
// The differential fuzzer never installs an interceptor, so these cases
// are the only check that the optimized engine runs the §2 exchange hook
// move for move like the naive transcription of §3: each engine gets its
// own interceptor instance, and per-step fingerprints, digest streams,
// delivery steps and exchange counts must agree. The second case pins the
// ordering rule of the step pipeline: an exchange can turn a scheduled
// offer into a delivery and a delivery into an offer, so moves are
// classified only after phase (b). The greedy-adversary case runs every
// router whose out-plans the engine re-uses (plan_out_reads_queue_only),
// with a mid-run rewind of the optimized engine, so it doubles as a
// differential test of the plan cache: the reference engine re-plans every
// node on every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/adversary.hpp"
#include "check/oracles.hpp"
#include "check/reference_engine.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

/// Exchanges the destinations of an offer and a delivery aimed at the same
/// receiving node, whenever the delivering packet's move stays minimal
/// under the offered packet's destination: the offered packet is then
/// delivered this step and the delivering packet is offered instead.
class OfferDeliverySwapper : public StepInterceptor {
 public:
  std::size_t swaps() const { return swaps_; }

  void after_schedule(Sim& e, std::span<const ScheduledMove> moves) override {
    std::vector<std::uint8_t> used(e.num_packets(), 0);
    for (const ScheduledMove& offer : moves) {
      if (e.packet(offer.packet).dest == offer.to || used[offer.packet])
        continue;
      for (const ScheduledMove& delivery : moves) {
        if (delivery.to != offer.to || used[delivery.packet] ||
            e.packet(delivery.packet).dest != delivery.to)
          continue;
        const NodeId far = e.packet(offer.packet).dest;
        if (!e.topology().is_profitable(delivery.from, delivery.dir, far))
          continue;
        e.exchange_destinations(offer.packet, delivery.packet);
        used[offer.packet] = used[delivery.packet] = 1;
        ++swaps_;
        break;
      }
    }
  }

 private:
  std::size_t swaps_ = 0;
};

/// GreedyAdversary's strategy with its candidate pool ordered by a full
/// std::sort on (distance to the hot node, id) every step: the order its
/// counting sort must reproduce exactly.
class SortedPoolAdversary : public StepInterceptor {
 public:
  std::size_t exchanges() const { return exchanges_; }

  void after_schedule(Sim& e, std::span<const ScheduledMove> moves) override {
    NodeId hot = kInvalidNode;
    int best = 0;
    for (NodeId u : e.active_nodes()) {
      if (e.occupancy(u) > best) {
        best = e.occupancy(u);
        hot = u;
      }
    }
    if (hot == kInvalidNode || moves.empty()) return;
    std::vector<std::int32_t> scheduled(e.num_packets(), -1);
    for (std::size_t i = 0; i < moves.size(); ++i)
      scheduled[static_cast<std::size_t>(moves[i].packet)] =
          static_cast<std::int32_t>(i);
    const auto legal = [&](PacketId p, NodeId dest) {
      const Packet& pk = e.packet(p);
      const NodeId at = pk.location != kInvalidNode ? pk.location : pk.source;
      if (at == dest) return false;
      const std::int32_t mi = scheduled[static_cast<std::size_t>(p)];
      if (mi < 0) return true;
      const ScheduledMove& m = moves[static_cast<std::size_t>(mi)];
      return e.topology().is_profitable(m.from, m.dir, dest);
    };
    std::vector<std::pair<std::int32_t, PacketId>> pool;
    for (std::size_t id = 0; id < e.num_packets(); ++id) {
      const Packet& qk = e.packet(static_cast<PacketId>(id));
      if (!qk.delivered())
        pool.emplace_back(e.topology().distance(qk.dest, hot),
                          static_cast<PacketId>(id));
    }
    std::sort(pool.begin(), pool.end());
    std::vector<std::uint8_t> consumed(e.num_packets(), 0);
    int budget = 4096;  // kStepProbeBudget
    for (const ScheduledMove& m : moves) {
      if (budget <= 0) break;
      if (consumed[static_cast<std::size_t>(m.packet)]) continue;
      const NodeId cur_dest = e.packet(m.packet).dest;
      const std::int32_t cur_dist = e.topology().distance(cur_dest, hot);
      if (cur_dist == 0) continue;
      int probed = 0;
      for (const auto& [dist, q] : pool) {
        if (dist >= cur_dist) break;
        if (probed >= 64 || budget <= 0) break;  // kScanCap
        if (q == m.packet || consumed[static_cast<std::size_t>(q)]) continue;
        ++probed;
        --budget;
        const NodeId cand_dest = e.packet(q).dest;
        if (!legal(m.packet, cand_dest) || !legal(q, cur_dest)) continue;
        e.exchange_destinations(m.packet, q);
        consumed[static_cast<std::size_t>(m.packet)] = 1;
        consumed[static_cast<std::size_t>(q)] = 1;
        ++exchanges_;
        break;
      }
    }
  }

 private:
  std::size_t exchanges_ = 0;
};

/// Runs Engine and ReferenceEngine side by side, each with its own
/// interceptor, asserting agreement after prepare() and after every step.
/// With `rewind_at` > 0 the optimized engine, after that step, snapshots,
/// runs a few steps ahead on its own (interceptor detached, digest hash
/// saved) and restores the snapshot: a plan cached during the run-ahead
/// and kept across the restore makes the engines diverge at once.
/// Returns the engine's per-packet delivery steps.
std::vector<Step> run_lockstep(const Mesh& mesh, const std::string& algorithm,
                               int k, const Workload& demands,
                               StepInterceptor& icp_opt,
                               StepInterceptor& icp_ref, Step rewind_at = 0) {
  auto algo_opt = make_algorithm(algorithm);
  auto algo_ref = make_algorithm(algorithm);
  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = 64;
  Engine opt(mesh, config, *algo_opt);
  ReferenceEngine ref(mesh, k, config.stall_limit, *algo_ref);
  opt.set_interceptor(&icp_opt);
  ref.set_interceptor(&icp_ref);
  DigestHasher hash_opt, hash_ref;
  opt.add_observer(static_cast<StepObserver*>(&hash_opt));
  ref.add_observer(static_cast<StepObserver*>(&hash_ref));
  for (const Demand& d : demands) {
    opt.add_packet(d.source, d.dest, d.injected_at);
    ref.add_packet(d.source, d.dest, d.injected_at);
  }
  opt.prepare();
  ref.prepare();
  EXPECT_EQ(opt.fingerprint(), ref.fingerprint()) << "prepare() diverged";

  for (Step t = 0; t < 4096; ++t) {
    const bool more_opt = opt.step_once();
    const bool more_ref = ref.step_once();
    EXPECT_EQ(more_opt, more_ref) << "drain decision diverged at step " << t;
    if (opt.fingerprint() != ref.fingerprint() ||
        hash_opt.hash() != hash_ref.hash()) {
      ADD_FAILURE() << "engines diverged at step " << opt.step();
      break;
    }
    EXPECT_EQ(opt.exchange_count(), ref.exchange_count());
    EXPECT_EQ(opt.stalled(), ref.stalled());
    if (!more_opt || opt.stalled()) break;
    if (opt.step() == rewind_at) {
      const EngineSnapshot snap = opt.snapshot();
      const DigestHasher saved = hash_opt;
      opt.set_interceptor(nullptr);
      for (int ahead = 0; ahead < 3; ++ahead) opt.step_once();
      opt.restore(snap);
      opt.set_interceptor(&icp_opt);
      hash_opt = saved;
      if (opt.fingerprint() != ref.fingerprint()) {
        ADD_FAILURE() << "restore diverged at step " << opt.step();
        break;
      }
    }
  }
  EXPECT_EQ(opt.delivered_count(), ref.delivered_count());
  EXPECT_EQ(opt.total_moves(), ref.total_moves());
  EXPECT_EQ(opt.max_occupancy_seen(), ref.max_occupancy_seen());

  std::vector<Step> delivered_at;
  for (std::size_t p = 0; p < opt.num_packets(); ++p) {
    const PacketId id = static_cast<PacketId>(p);
    EXPECT_EQ(opt.packet(id).delivered_at, ref.packet(id).delivered_at)
        << "packet " << p;
    delivered_at.push_back(opt.packet(id).delivered_at);
  }
  return delivered_at;
}

/// Routers whose out-plans the optimized engine re-uses across steps.
std::vector<std::string> plan_reusing_algorithm_names() {
  std::vector<std::string> names;
  for (const std::string& name : algorithm_names())
    if (make_algorithm(name)->plan_out_reads_queue_only())
      names.push_back(name);
  return names;
}

TEST(InterceptorLockstep, GreedyAdversaryMatchesReference) {
  const Mesh mesh = Mesh::square(8);
  const std::vector<std::string> algorithms = plan_reusing_algorithm_names();
  ASSERT_FALSE(algorithms.empty());
  for (const std::string& algorithm : algorithms) {
    for (int k : {1, 2}) {
      SCOPED_TRACE(algorithm + " k=" + std::to_string(k));
      GreedyAdversary adv_opt, adv_ref;
      run_lockstep(mesh, algorithm, k, random_permutation(mesh, 11), adv_opt,
                   adv_ref, /*rewind_at=*/5);
      EXPECT_GT(adv_opt.exchanges(), 0u) << "adversary never exchanged";
      EXPECT_EQ(adv_opt.exchanges(), adv_ref.exchanges());
    }
  }
}

TEST(InterceptorLockstep, GreedyAdversaryPoolOrderMatchesFullSort) {
  // The reference engine runs the full-sort strategy: any difference in
  // the candidate order changes some exchange, and the runs diverge.
  const std::string algorithm = dx_minimal_algorithm_names().front();
  for (bool torus : {false, true}) {
    const Mesh mesh = Mesh::square(8, torus);
    for (int k : {1, 2}) {
      SCOPED_TRACE(std::string(torus ? "torus" : "mesh") +
                   " k=" + std::to_string(k));
      GreedyAdversary counting;
      SortedPoolAdversary sorted;
      run_lockstep(mesh, algorithm, k, random_permutation(mesh, 23), counting,
                   sorted);
      EXPECT_GT(counting.exchanges(), 0u) << "adversary never exchanged";
      EXPECT_EQ(counting.exchanges(), sorted.exchanges());
    }
  }
}

TEST(InterceptorLockstep, ExchangeSwapsOfferAndDelivery) {
  const Mesh mesh = Mesh::square(6);
  // A at (1,2) heads East into (2,2) on its way to (4,3); B at (2,1) moves
  // North into (2,2), its destination. Swapping their destinations in step
  // 1 delivers A on arrival and turns B's delivery into an offer.
  const NodeId hub = mesh.id_of(2, 2);
  const Workload demands = {
      {mesh.id_of(1, 2), mesh.id_of(4, 3)},
      {mesh.id_of(2, 1), hub},
  };
  OfferDeliverySwapper swap_opt, swap_ref;
  const std::vector<Step> delivered_at = run_lockstep(
      mesh, "dimension-order", 1, demands, swap_opt, swap_ref);
  EXPECT_EQ(swap_opt.swaps(), 1u);
  EXPECT_EQ(swap_ref.swaps(), 1u);
  ASSERT_EQ(delivered_at.size(), 2u);
  EXPECT_EQ(delivered_at[0], 1);  // A, delivered at the hub
  EXPECT_EQ(delivered_at[1], 4);  // B: hub, then two hops East, one North
}

TEST(InterceptorLockstep, OfferDeliverySwapsOnPermutation) {
  const Mesh mesh = Mesh::square(8);
  for (const std::string algorithm : {"dimension-order", "greedy-match"}) {
    SCOPED_TRACE(algorithm);
    OfferDeliverySwapper swap_opt, swap_ref;
    run_lockstep(mesh, algorithm, 2, random_permutation(mesh, 5), swap_opt,
                 swap_ref);
    EXPECT_GT(swap_opt.swaps(), 0u) << "no offer/delivery pair was swapped";
    EXPECT_EQ(swap_opt.swaps(), swap_ref.swaps());
  }
}

}  // namespace
}  // namespace mr
