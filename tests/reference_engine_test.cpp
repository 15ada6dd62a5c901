// Direct tests of the naive ReferenceEngine (check/reference_engine.hpp)
// and the fuzz-case plumbing: the reference must behave like the §3
// pipeline on its own, match the optimized Engine bit-for-bit in
// lock-step, and reject the same malformed configurations. The seeded
// fuzzer covers the same ground at scale; these tests pin the small,
// deliberate cases with readable failures.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/fuzz.hpp"
#include "check/oracles.hpp"
#include "check/reference_engine.hpp"
#include "core/assert.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/patterns.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

/// Runs both engines on the same (mesh, k, workload) in lock-step and
/// asserts fingerprints, digest hashes and counters agree at every step.
void expect_lockstep(const Mesh& mesh, const std::string& algorithm, int k,
                     const Workload& demands, Step budget = 2048) {
  auto algo_opt = make_algorithm(algorithm);
  auto algo_ref = make_algorithm(algorithm);

  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = 64;
  Engine opt(mesh, config, *algo_opt);
  ReferenceEngine ref(mesh, k, config.stall_limit, *algo_ref);

  DigestHasher hash_opt, hash_ref;
  opt.add_observer(static_cast<StepObserver*>(&hash_opt));
  ref.add_observer(static_cast<StepObserver*>(&hash_ref));

  for (const Demand& d : demands) {
    opt.add_packet(d.source, d.dest, d.injected_at);
    ref.add_packet(d.source, d.dest, d.injected_at);
  }
  opt.prepare();
  ref.prepare();
  ASSERT_EQ(opt.fingerprint(), ref.fingerprint()) << "prepare() diverged";

  for (Step t = 0; t < budget; ++t) {
    const bool more_opt = opt.step_once();
    const bool more_ref = ref.step_once();
    ASSERT_EQ(more_opt, more_ref) << "drain decision diverged at step " << t;
    ASSERT_EQ(opt.fingerprint(), ref.fingerprint())
        << "fingerprint diverged at step " << opt.step();
    ASSERT_EQ(hash_opt.hash(), hash_ref.hash())
        << "digest stream diverged at step " << opt.step();
    ASSERT_EQ(opt.stalled(), ref.stalled());
    if (!more_opt) break;
  }
  EXPECT_EQ(opt.delivered_count(), ref.delivered_count());
  EXPECT_EQ(opt.total_moves(), ref.total_moves());
  EXPECT_EQ(opt.max_occupancy_seen(), ref.max_occupancy_seen());
  EXPECT_EQ(opt.exchange_count(), ref.exchange_count());
}

TEST(ReferenceEngine, DeliversSimpleWorkload) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  ReferenceEngine ref(mesh, 2, /*stall_limit=*/64, *algo);
  ref.add_packet(0, 15);
  ref.add_packet(15, 0);
  ref.prepare();
  ref.run(100);
  EXPECT_TRUE(ref.all_delivered());
  EXPECT_FALSE(ref.stalled());
  // Corner to corner is 6 hops; the delivering hop leaves the network and
  // is not a queue-to-queue move, so total_moves counts 5 per packet.
  EXPECT_EQ(ref.total_moves(), 10);
}

TEST(ReferenceEngine, SourceEqualsDestDeliversAtInjection) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  ReferenceEngine ref(mesh, 1, 64, *algo);
  ref.add_packet(5, 5);
  ref.prepare();
  EXPECT_EQ(ref.delivered_count(), 1u);
  EXPECT_EQ(ref.total_moves(), 0);
}

TEST(ReferenceEngine, MatchesEngineOnTranspose) {
  const Mesh mesh = Mesh::square(6);
  expect_lockstep(mesh, "adaptive-alternate", 2, transpose(mesh));
}

TEST(ReferenceEngine, MatchesEngineOnPerInlinkLayout) {
  const Mesh mesh = Mesh::square(5);
  expect_lockstep(mesh, "bounded-dimension-order", 1, transpose(mesh));
}

TEST(ReferenceEngine, InlinkOccupancyMatchesInLockstep) {
  // A PerInlink run in lockstep on Engine with one band, Engine with three
  // bands and ReferenceEngine: at every step every inlink queue count that
  // QueueBoundOracle cross-checks agrees on all three engines.
  const Mesh mesh = Mesh::square(8);
  Workload demands = random_permutation(mesh, 11);
  for (std::size_t i = 0; i < demands.size(); ++i)
    demands[i].injected_at = static_cast<Step>(i % 4);
  const std::string algorithm = "bounded-dimension-order";
  auto algo_ref = make_algorithm(algorithm);
  Engine::Config config;
  config.queue_capacity = 2;
  config.stall_limit = 64;
  Engine one(mesh, config, [&] { return make_algorithm(algorithm); });
  config.shards = 3;
  Engine three(mesh, config, [&] { return make_algorithm(algorithm); });
  ReferenceEngine ref(mesh, config.queue_capacity, config.stall_limit,
                      *algo_ref);
  const Sim* const engines[] = {&one, &three};
  for (const Demand& d : demands) {
    one.add_packet(d.source, d.dest, d.injected_at);
    three.add_packet(d.source, d.dest, d.injected_at);
    ref.add_packet(d.source, d.dest, d.injected_at);
  }
  one.prepare();
  three.prepare();
  ref.prepare();
  ASSERT_EQ(one.queue_layout(), QueueLayout::PerInlink);
  int busy_queues = 0;
  for (Step t = 0; t < 256; ++t) {
    for (NodeId u = 0; u < mesh.num_nodes(); ++u) {
      for (int q = 0; q < kNumDirs; ++q) {
        const int want = ref.occupancy(u, static_cast<QueueTag>(q));
        for (const Sim* sim : engines)
          ASSERT_EQ(sim->occupancy(u, static_cast<QueueTag>(q)), want)
              << "node " << u << " queue " << q << " step " << sim->step();
        busy_queues += want > 0;
      }
    }
    const bool more = one.step_once();
    ASSERT_EQ(three.step_once(), more);
    ASSERT_EQ(ref.step_once(), more);
    if (!more) break;
  }
  EXPECT_TRUE(one.all_delivered());
  EXPECT_GT(busy_queues, 0);
}

TEST(ReferenceEngine, MatchesEngineOnTorus) {
  const Mesh mesh = Mesh::square(6, /*torus=*/true);
  expect_lockstep(mesh, "dimension-order", 2, transpose(mesh));
}

TEST(ReferenceEngine, MatchesEngineOnStaggeredInjections) {
  const Mesh mesh = Mesh::square(5);
  Workload demands = transpose(mesh);
  for (std::size_t i = 0; i < demands.size(); ++i)
    demands[i].injected_at = static_cast<Step>(i % 7);
  expect_lockstep(mesh, "greedy-match", 1, demands);
}

TEST(ReferenceEngine, MatchesEngineOnNonMinimalRouter) {
  const Mesh mesh = Mesh::square(5);
  expect_lockstep(mesh, "stray-2", 2, transpose(mesh));
}

// --- constructor validation (negative paths) -----------------------------

TEST(ReferenceEngine, RejectsNonPositiveQueueCapacity) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  EXPECT_THROW(ReferenceEngine(mesh, 0, 64, *algo), InvariantViolation);
  EXPECT_THROW(ReferenceEngine(mesh, -3, 64, *algo), InvariantViolation);
}

TEST(ReferenceEngine, RejectsNegativeStallLimit) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  EXPECT_THROW(ReferenceEngine(mesh, 1, -1, *algo), InvariantViolation);
}

// --- fuzz-case spec round trip -------------------------------------------

TEST(FuzzCase, SpecRoundTrips) {
  FuzzCase c;
  c.algorithm = "bounded-dimension-order";
  c.n = 7;
  c.topo = "torus";
  c.k = 4;
  c.budget = 512;
  c.ckpt = 9;
  c.demands = {{3, 41, 0}, {9, 2, 5}};
  const std::string spec = format_fuzz_case(c);

  FuzzCase parsed;
  std::string error;
  ASSERT_TRUE(parse_fuzz_case(spec, &parsed, &error)) << error;
  EXPECT_EQ(parsed.algorithm, c.algorithm);
  EXPECT_EQ(parsed.n, c.n);
  EXPECT_EQ(parsed.topo, c.topo);
  EXPECT_EQ(parsed.k, c.k);
  EXPECT_EQ(parsed.budget, c.budget);
  EXPECT_EQ(parsed.ckpt, c.ckpt);
  ASSERT_EQ(parsed.demands.size(), c.demands.size());
  for (std::size_t i = 0; i < c.demands.size(); ++i) {
    EXPECT_EQ(parsed.demands[i].source, c.demands[i].source);
    EXPECT_EQ(parsed.demands[i].dest, c.demands[i].dest);
    EXPECT_EQ(parsed.demands[i].injected_at, c.demands[i].injected_at);
  }
}

TEST(FuzzCase, TopoKeyRoundTrips) {
  FuzzCase c;
  c.algorithm = "bounded-dimension-order";
  c.n = 4;
  c.topo = "cmesh-2";
  c.k = 2;
  c.budget = 256;
  c.demands = {{0, 15, 0}};
  const std::string spec = format_fuzz_case(c);
  EXPECT_NE(spec.find("topo=cmesh-2"), std::string::npos);

  FuzzCase parsed;
  std::string error;
  ASSERT_TRUE(parse_fuzz_case(spec, &parsed, &error)) << error;
  EXPECT_EQ(parsed.topo, "cmesh-2");
  // The legacy spellings still parse: torus=0 leaves topo empty (mesh),
  // torus=1 normalises to topo=torus.
  ASSERT_TRUE(parse_fuzz_case(
      "algo=dimension-order n=4 torus=0 k=1 budget=64 demands=0-15", &parsed,
      &error))
      << error;
  EXPECT_TRUE(parsed.topo.empty());
  ASSERT_TRUE(parse_fuzz_case(
      "algo=dimension-order n=4 torus=1 k=1 budget=64 demands=0-15", &parsed,
      &error))
      << error;
  EXPECT_EQ(parsed.topo, "torus");
}

TEST(FuzzCase, RunFuzzCaseOnRegistryTopologies) {
  for (const char* topo : {"mesh", "torus", "cmesh-2", "cmesh-4"}) {
    FuzzCase c;
    c.algorithm = "bounded-dimension-order";
    c.n = 4;
    c.topo = topo;
    c.k = 2;
    c.budget = 256;
    c.demands = {{0, 15, 0}, {15, 0, 0}, {3, 12, 1}};
    EXPECT_EQ(run_fuzz_case(c), "") << topo;
  }
}

TEST(FuzzCase, ParseRejectsMalformedSpecs) {
  // Algorithm names resolve at run time, not parse time; structural and
  // range errors are rejected here. Parsed only: none of these may run.
  FuzzCase out;
  for (const char* spec : {
           "",
           "algo=dimension-order",
           "algo=dimension-order n=4 torus=0 k=0 budget=64 demands=0-1",
           "algo=dimension-order n=4 torus=0 k=1 budget=64 demands=0-99",
           "algo=dimension-order n=4 torus=0 topo=hypercube k=1 budget=64 "
           "demands=0-1",
           // n*n overflows NodeId (n = 46341 is the first such side).
           "algo=dimension-order n=46341 demands=0-1",
           "algo=dimension-order n=2147483648 demands=0-1",
           // Values past a field's range must not wrap to small ones.
           "algo=dimension-order n=4 k=4294967297 demands=0-1",
           "algo=dimension-order n=4 demands=4294967296-5",
           "algo=dimension-order n=4 demands=0-4294967297",
           "algo=dimension-order n=4 shards=4294967297 demands=0-1",
           "algo=dimension-order n=4 threads=4294967297 demands=0-1",
           "algo=dimension-order n=4 budget=99999999999999999999 demands=0-1",
           "algo=dimension-order n=4 demands=0-1@99999999999999999999",
           "algo=dimension-order n=4 tseed=99999999999999999999 demands=0-1",
           // An unsigned field takes no sign (strtoull would wrap -1).
           "algo=dimension-order n=4 tseed=-1 demands=0-1",
           "algo=dimension-order n=4 traffic=uniform rate=nan tsteps=1 "
           "demands=0-1",
           "algo=dimension-order n=4 topo=cmesh-99999999999999999999 "
           "demands=0-1",
           "algo=dimension-order n=4 lk=uniform:4294967297:1:1",
           // Empty or trailing text.
           "algo=dimension-order n= demands=0-1",
           "algo=dimension-order n=4x demands=0-1",
           "algo=dimension-order n=4 demands=0-1@",
           "algo=dimension-order n=4 demands=0-1-2",
           "algo=dimension-order n=4 topo=cmesh-4junk demands=0-1",
       }) {
    std::string error;
    EXPECT_FALSE(parse_fuzz_case(spec, &out, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  // The largest side whose node ids fit still parses.
  std::string error;
  EXPECT_TRUE(parse_fuzz_case("algo=dimension-order n=46340 demands=0-1@7",
                              &out, &error))
      << error;
  EXPECT_EQ(out.n, 46340);
  EXPECT_EQ(out.demands[0].injected_at, 7);
}

TEST(FuzzCase, MakeAlgorithmRejectsMalformedStraySuffix) {
  for (const char* name :
       {"stray-2junk", "stray-", "stray- 2", "stray-+2", "stray-0x2",
        "stray-99999999999999999999", "stray-65", "stray--1"})
    EXPECT_THROW(make_algorithm(name), InvariantViolation) << name;
  EXPECT_EQ(parse_algorithm_spec("stray-2junk").name, "stray-2junk");
  const AlgorithmSpec seven = parse_algorithm_spec("stray-7");
  EXPECT_EQ(seven.name, "stray");
  EXPECT_EQ(seven.params.stray_bound, 7);
  EXPECT_EQ(make_algorithm("stray-7")->max_stray(), 7);
}

TEST(FuzzCase, RunFuzzCasePassesOnRegisteredAlgorithms) {
  for (const AlgorithmInfo& info : algorithm_catalog()) {
    FuzzCase c;
    c.algorithm = info.name;
    c.n = 4;
    c.k = 2;
    c.budget = 256;
    c.demands = {{0, 15, 0}, {15, 0, 0}, {3, 12, 1}};
    EXPECT_EQ(run_fuzz_case(c), "") << info.name;
  }
}

TEST(FuzzCase, ShrinkIsNoOpOnPassingCase) {
  FuzzCase c;
  c.algorithm = "dimension-order";
  c.n = 4;
  c.k = 1;
  c.budget = 256;
  c.demands = {{0, 15, 0}, {15, 0, 0}};
  const FuzzCase shrunk = shrink_fuzz_case(c);
  EXPECT_EQ(shrunk.demands.size(), c.demands.size());
}

}  // namespace
}  // namespace mr
