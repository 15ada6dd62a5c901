// Engine and ReferenceEngine in lock-step under a phase-(b) interceptor.
//
// The differential fuzzer never installs an interceptor, so these cases
// are the only check that the optimized engine runs the §2 exchange hook
// move for move like the naive transcription of §3: each engine gets its
// own interceptor instance, and per-step fingerprints, digest streams,
// delivery steps and exchange counts must agree. The second case pins the
// ordering rule of the step pipeline: an exchange can turn a scheduled
// offer into a delivery and a delivery into an offer, so moves are
// classified only after phase (b).
#include <gtest/gtest.h>

#include <memory>
#include <string>
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

/// Runs Engine and ReferenceEngine side by side, each with its own
/// interceptor, asserting agreement after prepare() and after every step.
/// Returns the engine's per-packet delivery steps.
template <typename Interceptor>
std::vector<Step> run_lockstep(const Mesh& mesh, const std::string& algorithm,
                               int k, const Workload& demands,
                               Interceptor& icp_opt, Interceptor& icp_ref) {
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

TEST(InterceptorLockstep, GreedyAdversaryMatchesReference) {
  const Mesh mesh = Mesh::square(8);
  const std::string algorithm = dx_minimal_algorithm_names().front();
  for (int k : {1, 2}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    GreedyAdversary adv_opt, adv_ref;
    run_lockstep(mesh, algorithm, k, random_permutation(mesh, 11), adv_opt,
                 adv_ref);
    EXPECT_GT(adv_opt.exchanges(), 0u) << "adversary never exchanged";
    EXPECT_EQ(adv_opt.exchanges(), adv_ref.exchanges());
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
