// Regression pin for torus wrap-link offer grouping.
//
// On a torus the neighbor relation is not monotone in NodeId: the wrap
// links connect row/column 0 back to n-1, so grouping transmit offers by
// receiving node must use Mesh::neighbor, not NodeId arithmetic. The first
// test asserts, move by move via the StepDigest, that every hop lands on
// exactly the node its offered link points at — including wrap hops, which
// the workload is chosen to force. The second pins hard-coded golden
// fingerprints for fixed torus runs so any reordering of wrap-link offer
// handling shows up as a bit-level diff. The third runs a torus two
// columns wide, where a node's east and west outlinks lead to the same
// neighbour, which then gets two offers from one sender in one step.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/reference_engine.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

/// Checks every MoveRecord against the mesh's own neighbor map and counts
/// hops that cross a wrap link (coordinate jump of n-1 in one dimension).
class OfferGroupingCheck final : public StepObserver {
 public:
  void on_step(const Sim& e, const StepDigest& d) override {
    const Topology& mesh = e.mesh();
    for (const MoveRecord& m : d.moves) {
      ASSERT_EQ(mesh.neighbor(m.from, m.dir), m.to)
          << "step " << d.step << ": packet " << m.packet << " moved "
          << m.from << "->" << m.to << " but the offered link points at "
          << mesh.neighbor(m.from, m.dir);
      const Coord a = mesh.coord_of(m.from);
      const Coord b = mesh.coord_of(m.to);
      if (std::abs(a.col - b.col) > 1 || std::abs(a.row - b.row) > 1)
        ++wrap_moves;
    }
  }
  std::int64_t wrap_moves = 0;
};

std::uint64_t torus_run(const std::string& router, std::int32_t n, int k,
                        std::uint64_t seed, Step steps,
                        std::int64_t* wrap_moves) {
  const Mesh mesh = Mesh::square(n, /*torus=*/true);
  auto algo = make_algorithm(router);
  Engine::Config config;
  config.queue_capacity = k;
  Engine e(mesh, config, *algo);
  for (const Demand& d : random_permutation(mesh, seed))
    e.add_packet(d.source, d.dest);
  OfferGroupingCheck check;
  e.add_observer(&check);
  e.prepare();
  for (Step t = 0; t < steps && !e.all_delivered(); ++t) e.step_once();
  if (wrap_moves != nullptr) *wrap_moves = check.wrap_moves;
  return e.fingerprint();
}

/// Torus-capable routers: the DX minimal class plus the Theorem 15 router.
/// The stray router's rectangle accounting assumes mesh geometry, so it is
/// out of scope on the torus (as in fingerprint_regression_test).
std::vector<std::string> torus_routers() {
  std::vector<std::string> routers = dx_minimal_algorithm_names();
  routers.push_back("bounded-dimension-order");
  return routers;
}

TEST(TorusOffers, MovesFollowOfferedLinksIncludingWraps) {
  for (const std::string& router : torus_routers()) {
    std::int64_t wrap_moves = 0;
    torus_run(router, 8, 2, 5, 64, &wrap_moves);
    if (HasFatalFailure()) FAIL() << "offer grouping broken for " << router;
    // A random permutation on a torus routes ~half its traffic across the
    // wraps; every router must actually use them.
    EXPECT_GT(wrap_moves, 0) << router << " never crossed a wrap link";
  }
}

struct TorusGolden {
  const char* router;
  std::uint64_t fingerprint;
};

// Captured from the seed implementation (torus_run(router, 10, 2, 9, 24)).
// Regenerate by running with MESHROUTE_PRINT_TORUS_FPS=1 after an
// intentional semantic change, never to paper over a diff.
constexpr TorusGolden kGoldens[] = {
    {"dimension-order", 0x1799ceb56267e472ULL},
    {"adaptive-alternate", 0x8b2e390ecabaa372ULL},
    {"greedy-match", 0x73cc5b2a61b510baULL},
    {"west-first", 0x32e664561c3c9ef1ULL},
    {"bounded-dimension-order", 0xcbf29ce484222325ULL},
};

TEST(TorusOffers, FingerprintsMatchGolden) {
  const bool print = std::getenv("MESHROUTE_PRINT_TORUS_FPS") != nullptr;
  for (const TorusGolden& g : kGoldens) {
    const std::uint64_t fp = torus_run(g.router, 10, 2, 9, 24, nullptr);
    if (print) {
      std::printf("    {\"%s\", 0x%llxULL},\n", g.router,
                  static_cast<unsigned long long>(fp));
      continue;
    }
    EXPECT_EQ(fp, g.fingerprint) << g.router;
  }
}

/// Greedy minimal router: each queued packet, in queue order, takes the
/// first free profitable outlink in E, W, N, S order; every offer is
/// accepted (k is large enough for the test's load).
class GreedyEastWest final : public Algorithm {
 public:
  std::string name() const override { return "greedy-east-west"; }
  void plan_out(Sim& e, NodeId u, OutPlan& plan) override {
    for (const PacketId p : e.packets_at(u))
      for (const Dir d : {Dir::East, Dir::West, Dir::North, Dir::South})
        if (mask_has(e.profitable_mask(p), d) &&
            plan.scheduled(d) == kInvalidPacket) {
          plan.schedule(d, p);
          break;
        }
  }
  void plan_in(Sim&, NodeId, std::span<const Offer> offers,
               InPlan& plan) override {
    for (std::size_t i = 0; i < offers.size(); ++i) plan.accept[i] = true;
  }
};

/// Counts accepted hops that share their sender and receiver with another
/// hop of the same step.
class SameNeighbourOffers final : public StepObserver {
 public:
  void on_step(const Sim&, const StepDigest& d) override {
    for (const MoveRecord& a : d.moves)
      for (const MoveRecord& b : d.moves)
        if (!a.delivered && !b.delivered && a.packet < b.packet &&
            a.from == b.from && a.to == b.to)
          ++pairs;
  }
  std::int64_t pairs = 0;
};

TEST(TorusOffers, OneNeighbourOffersOnTwoInlinks) {
  // On a 2x5 torus column 1 is both the east and the west neighbour of
  // column 0, and a packet one column over has both directions
  // profitable. Two packets at each node of column 0, bound two rows up
  // in column 1, leave on E and W together and reach the same neighbour on
  // two inlinks. The engine on one band and on three must stay in lockstep
  // with the reference.
  const Mesh mesh(2, 5, /*torus=*/true);
  constexpr int k = 4;
  GreedyEastWest algo;
  ReferenceEngine ref(mesh, k, kDefaultStallLimit, algo);
  std::vector<std::unique_ptr<Engine>> engines;
  SameNeighbourOffers pairs;
  for (const int shards : {1, 3}) {
    Engine::Config config;
    config.queue_capacity = k;
    config.shards = shards;
    engines.push_back(std::make_unique<Engine>(mesh, config, algo));
  }
  engines.front()->add_observer(&pairs);
  for (std::int32_t r = 0; r < mesh.height(); ++r)
    for (int copy = 0; copy < 2; ++copy) {
      const NodeId s = mesh.id_of(0, r);
      const NodeId t = mesh.id_of(1, (r + 2) % mesh.height());
      ref.add_packet(s, t);
      for (auto& e : engines) e->add_packet(s, t);
    }
  ref.prepare();
  for (auto& e : engines) e->prepare();
  while (!ref.all_delivered() && ref.step() < 100) {
    ref.step_once();
    for (auto& e : engines) {
      e->step_once();
      ASSERT_EQ(e->fingerprint(), ref.fingerprint()) << "step " << ref.step();
    }
  }
  EXPECT_TRUE(ref.all_delivered());
  for (auto& e : engines) EXPECT_TRUE(e->all_delivered());
  EXPECT_EQ(pairs.pairs, mesh.height());
}

}  // namespace
}  // namespace mr
