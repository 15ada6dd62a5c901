// Link/node fault injection (sim/fault.hpp) end to end: schedule grammar
// round trips and topology validation, engine fault semantics (deferred
// injections, dropped moves, recovery after transient windows),
// sequential-vs-sharded fingerprint equivalence under faults for every
// registered router, Engine-vs-ReferenceEngine lockstep via the fuzzer
// entry point, oracle validity on the degraded topology, and the
// no-schedule path staying bit-identical to a fault-free run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/oracles.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

FaultSchedule schedule_of(const std::string& text) {
  FaultSchedule s;
  std::string error;
  EXPECT_TRUE(parse_fault_schedule(text, &s, &error)) << error;
  return s;
}

TEST(FaultSchedule, FormatParseRoundTrip) {
  for (const std::string& text :
       {std::string("node:5@3-20"), std::string("link:7:E@1"),
        std::string("node:0@2-9,link:12:N@4-40,node:3@1")}) {
    const FaultSchedule s = schedule_of(text);
    EXPECT_EQ(format_fault_schedule(s), text);
  }
  EXPECT_EQ(format_fault_schedule(FaultSchedule{}), "none");
  EXPECT_TRUE(schedule_of("none").empty());
  EXPECT_TRUE(schedule_of("").empty());
}

TEST(FaultSchedule, MalformedSpecsRejected) {
  FaultSchedule s;
  std::string error;
  for (const char* bad :
       {"node:5", "node:5@0", "node:5@4-2", "node:x@3", "link:5@3",
        "link:5:Q@3", "gate:5@3", "node:5@3-",
        // Whole decimal fields in range only: no narrowing or clamping.
        "node:4294967297@3", "link:4294967301:N@3",
        "node:5@99999999999999999999", "node:5@+3"}) {
    EXPECT_FALSE(parse_fault_schedule(bad, &s, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FaultSchedule, ValidationAgainstTopology) {
  const Mesh mesh = Mesh::square(4);  // nodes 0..15
  EXPECT_EQ(validate_fault_schedule(schedule_of("node:15@2"), mesh), "");
  EXPECT_EQ(validate_fault_schedule(schedule_of("link:5:N@2"), mesh), "");
  EXPECT_NE(validate_fault_schedule(schedule_of("node:16@2"), mesh), "");
  // Node 0 sits in the south-west corner: no south or west link.
  EXPECT_NE(validate_fault_schedule(schedule_of("link:0:S@2"), mesh), "");
  EXPECT_NE(validate_fault_schedule(schedule_of("link:0:W@2"), mesh), "");
}

TEST(FaultSchedule, WindowQueries) {
  const FaultSchedule s = schedule_of("node:5@3-10,link:7:E@12-20");
  EXPECT_FALSE(s.active_at(2));
  EXPECT_TRUE(s.active_at(3));
  EXPECT_TRUE(s.active_at(9));
  EXPECT_FALSE(s.active_at(10));  // half-open window
  EXPECT_TRUE(s.active_at(12));
  EXPECT_FALSE(s.active_at(20));
  EXPECT_TRUE(s.node_down_at(5, 3));
  EXPECT_FALSE(s.node_down_at(5, 10));
  EXPECT_FALSE(s.node_down_at(7, 15));  // link fault: node stays up
  // Epochs move exactly at window boundaries.
  EXPECT_EQ(s.epoch_at(2), 0);
  EXPECT_LT(s.epoch_at(2), s.epoch_at(3));
  EXPECT_LT(s.epoch_at(9), s.epoch_at(10));
}

// A transient node fault defers every injection at the node until the
// window lifts, surfaces the deferrals in the digest counters, and the
// run still delivers everything afterwards.
TEST(FaultInjection, NodeFaultDefersInjectionsAndRecovers) {
  const Mesh mesh = Mesh::square(6);
  Engine::Config config;
  config.queue_capacity = 2;
  Engine e(mesh, config, [] { return make_algorithm("dimension-order"); });
  e.set_fault_schedule(schedule_of("node:14@1-30"));
  e.add_packet(14, 27, /*injected_at=*/2);  // source down until step 30
  e.add_packet(3, 32, /*injected_at=*/1);   // unaffected
  std::int64_t deferred = 0;

  class Counter final : public StepObserver {
   public:
    explicit Counter(std::int64_t& deferred) : deferred_(deferred) {}
    void on_step(const Sim&, const StepDigest& d) override {
      deferred_ += d.fault_deferred;
    }

   private:
    std::int64_t& deferred_;
  };
  Counter counter(deferred);
  e.add_observer(&counter);

  e.prepare();
  e.run(512);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_FALSE(e.stalled());
  // The deferred packet re-offers every step of the window.
  EXPECT_GE(deferred, 25);
  // It cannot have entered before the node came back up at step 30.
  EXPECT_GE(e.packet(0).delivered_at, 30);
}

// A permanent node fault on the only route makes the run stall (the
// reroute-or-stall "stall" arm), and the stall is identical with and
// without sharding.
TEST(FaultInjection, PermanentFaultStalls) {
  const Mesh mesh = Mesh::square(4);
  for (const int shards : {1, 4}) {
    Engine::Config config;
    config.queue_capacity = 2;
    config.stall_limit = 32;
    config.shards = shards;
    Engine e(mesh, config, [] { return make_algorithm("dimension-order"); });
    // Node 5 never recovers; a packet routed dimension-order from 4 to 6
    // must pass through 5 (row first on row 1).
    e.set_fault_schedule(schedule_of("node:5@1"));
    e.add_packet(4, 6);
    e.prepare();
    e.run(512);
    EXPECT_TRUE(e.stalled()) << "shards=" << shards;
    EXPECT_EQ(e.delivered_count(), 0u) << "shards=" << shards;
  }
}

// Sequential and sharded engines must agree bit for bit under an active
// fault schedule, for every registered router.
TEST(FaultInjection, ShardedMatchesSequentialUnderFaults) {
  const std::int32_t n = 8;
  const FaultSchedule faults =
      schedule_of("node:27@2-14,link:44:E@5-22,node:11@8");
  for (const std::string& router : algorithm_names()) {
    std::vector<std::vector<std::uint64_t>> prints;
    std::vector<std::uint64_t> hashes;
    for (const int shards : {1, 4}) {
      const Mesh mesh = Mesh::square(n);
      Engine::Config config;
      config.queue_capacity = 2;
      config.stall_limit = 48;
      config.shards = shards;
      config.threads = shards == 1 ? 1 : 2;
      Engine e(mesh, config, [&] { return make_algorithm(router); });
      e.set_fault_schedule(faults);
      const Workload w = random_partial_permutation(mesh, 0.4, 1234);
      for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
      DigestHasher hasher;
      e.add_observer(&hasher);
      e.prepare();
      std::vector<std::uint64_t> fp{e.fingerprint()};
      for (Step s = 0; s < 160 && !e.all_delivered() && !e.stalled(); ++s) {
        e.step_once();
        fp.push_back(e.fingerprint());
      }
      prints.push_back(std::move(fp));
      hashes.push_back(hasher.hash());
    }
    ASSERT_EQ(prints[0].size(), prints[1].size()) << router;
    for (std::size_t i = 0; i < prints[0].size(); ++i)
      ASSERT_EQ(prints[0][i], prints[1][i])
          << router << " fingerprint diverges at step " << i;
    EXPECT_EQ(hashes[0], hashes[1]) << router;
  }
}

// Differential lockstep against the ReferenceEngine under fault
// schedules, through the fuzzer entry point (which also runs the §2
// oracles and the offline trace replay on the degraded topology).
TEST(FaultInjection, ReferenceLockstepUnderFaults) {
  for (const std::string& router : algorithm_names()) {
    FuzzCase c;
    c.algorithm = router;
    c.n = 6;
    c.k = 2;
    c.budget = 512;
    c.faults = schedule_of("node:14@3-30,link:21:N@6-18");
    const Mesh mesh = Mesh::square(c.n);
    c.demands = random_partial_permutation(mesh, 0.5, 77);
    EXPECT_EQ(run_fuzz_case(c), "") << router;
  }
}

// The §2 oracles hold on the degraded topology: queue bound, link
// capacity, minimality (on the masked profitable sets) and the offline
// trace replay, on a run whose fault window is actually exercised.
TEST(FaultInjection, OraclesHoldOnDegradedTopology) {
  const Mesh mesh = Mesh::square(8);
  Engine::Config config;
  config.queue_capacity = 2;
  config.stall_limit = 64;
  Engine e(mesh, config, [] { return make_algorithm("adaptive-alternate"); });
  const FaultSchedule faults = schedule_of("node:27@2-40,link:12:E@4-32");
  e.set_fault_schedule(faults);
  const Workload w = random_partial_permutation(mesh, 0.3, 5);
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);

  QueueBoundOracle queue_bound;
  LinkCapacityOracle link_capacity;
  auto algo = make_algorithm("adaptive-alternate");
  ProfitableMoveOracle profitable(algo->minimal(), algo->max_stray());
  TraceRecorder trace;
  e.add_observer(&queue_bound);
  e.add_observer(&link_capacity);
  e.add_observer(&profitable);
  e.add_observer(&trace);

  e.prepare();
  e.run(1024);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_EQ(run_trace_oracles(trace.events(), mesh, e.all_packets(),
                              config.queue_capacity, algo->queue_layout(),
                              &faults),
            "");
}

// Installing an EMPTY schedule must leave the run bit-identical to one
// with no schedule at all — the guard for the fingerprint goldens.
TEST(FaultInjection, EmptyScheduleIsIdentityOnFingerprints) {
  const Mesh mesh = Mesh::square(6);
  std::vector<std::vector<std::uint64_t>> prints;
  for (const bool install : {false, true}) {
    Engine::Config config;
    config.queue_capacity = 2;
    Engine e(mesh, config, [] { return make_algorithm("dimension-order"); });
    if (install) e.set_fault_schedule(FaultSchedule{});
    const Workload w = random_permutation(mesh, 9);
    for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
    e.prepare();
    std::vector<std::uint64_t> fp{e.fingerprint()};
    while (!e.all_delivered() && !e.stalled()) {
      e.step_once();
      fp.push_back(e.fingerprint());
    }
    prints.push_back(std::move(fp));
  }
  EXPECT_EQ(prints[0], prints[1]);
}

// fault= / burst= keys round trip through the fuzzer spec grammar, so a
// shrunk repro line replays the exact same case.
TEST(FuzzSpec, FaultAndBurstKeysRoundTrip) {
  FuzzCase c;
  c.algorithm = "adaptive-alternate";
  c.n = 6;
  c.k = 2;
  c.budget = 256;
  c.traffic = "uniform";
  c.rate = 0.25;
  c.tseed = 9;
  c.tsteps = 20;
  c.burst = [] {
    BurstSpec b;
    std::string error;
    EXPECT_TRUE(parse_burst_spec("mmpp:0.2:0.1", &b, &error)) << error;
    return b;
  }();
  c.faults = schedule_of("node:14@3-30,link:21:N@6-18");
  c.demands.push_back({7, 29, 2});

  const std::string line = format_fuzz_case(c);
  EXPECT_NE(line.find("burst=mmpp:0.2:0.1"), std::string::npos) << line;
  EXPECT_NE(line.find("fault=node:14@3-30,link:21:N@6-18"),
            std::string::npos)
      << line;

  FuzzCase back;
  std::string error;
  ASSERT_TRUE(parse_fuzz_case(line, &back, &error)) << error;
  EXPECT_EQ(format_fuzz_case(back), line);
  EXPECT_EQ(format_fault_schedule(back.faults), format_fault_schedule(c.faults));
  EXPECT_EQ(format_burst_spec(back.burst), format_burst_spec(c.burst));
  // And the round-tripped case runs clean differentially.
  EXPECT_EQ(run_fuzz_case(back), "");
}

TEST(FuzzSpec, MalformedFaultAndBurstKeysRejected) {
  FuzzCase out;
  std::string error;
  const std::string base = "algo=dimension-order n=6 k=2 budget=64 ";
  EXPECT_FALSE(parse_fuzz_case(base + "fault=node:5@x demands=1-2@1", &out,
                               &error));
  EXPECT_NE(error.find("fault"), std::string::npos) << error;
  // Schedule is validated against the case's topology: node 40 does not
  // exist on a 6x6 mesh.
  EXPECT_FALSE(parse_fuzz_case(base + "fault=node:40@2 demands=1-2@1", &out,
                               &error));
  EXPECT_FALSE(parse_fuzz_case(
      base + "traffic=uniform rate=0.1 tseed=1 tsteps=8 burst=sawtooth:3 "
             "demands=1-2@1",
      &out, &error));
  EXPECT_NE(error.find("burst"), std::string::npos) << error;
}

// The shrinker, driven by an injected predicate: ddmin must reduce both
// the demand list and the fault-event list to the failure-relevant core,
// and the shrunk case's spec line must replay the same failure.
TEST(FuzzShrink, PredicateShrinksDemandsAndFaultEvents) {
  FuzzCase c;
  c.algorithm = "dimension-order";
  c.n = 6;
  c.k = 2;
  c.budget = 256;
  c.faults = schedule_of("node:14@3-30,link:21:N@6-18,node:8@2-5");
  c.demands = {{7, 29, 2}, {5, 30, 1}, {12, 3, 4}, {20, 11, 1}, {1, 34, 3}};

  // "Fails" iff the demand (5 -> 30) and a fault window over node 14 are
  // both still present — everything else is noise the shrinker must drop.
  const FuzzRunner predicate = [](const FuzzCase& x) -> std::string {
    bool demand = false;
    for (const Demand& d : x.demands)
      demand = demand || (d.source == 5 && d.dest == 30);
    bool fault = false;
    for (const FaultEvent& e : x.faults.events)
      fault = fault ||
              (e.kind == FaultEvent::Kind::Node && e.node == 14);
    return demand && fault ? "synthetic failure" : "";
  };
  ASSERT_NE(predicate(c), "");

  const FuzzCase shrunk = shrink_fuzz_case(c, predicate);
  EXPECT_EQ(shrunk.demands.size(), 1u);
  EXPECT_EQ(shrunk.demands[0].source, 5);
  EXPECT_EQ(shrunk.demands[0].dest, 30);
  ASSERT_EQ(shrunk.faults.events.size(), 1u);
  EXPECT_EQ(shrunk.faults.events[0].node, 14);
  EXPECT_NE(predicate(shrunk), "");

  // The repro line replays byte-for-byte.
  FuzzCase back;
  std::string error;
  ASSERT_TRUE(parse_fuzz_case(format_fuzz_case(shrunk), &back, &error))
      << error;
  EXPECT_EQ(format_fuzz_case(back), format_fuzz_case(shrunk));
  EXPECT_NE(predicate(back), "");
}

// Shrinking a bursty traffic case flattens the stream into explicit
// demands first (clearing traffic and burst), so ddmin applies to the
// expanded workload.
TEST(FuzzShrink, BurstyTrafficFlattensBeforeDdmin) {
  FuzzCase c;
  c.algorithm = "dimension-order";
  c.n = 6;
  c.k = 2;
  c.budget = 256;
  c.traffic = "uniform";
  c.rate = 0.3;
  c.tseed = 4;
  c.tsteps = 16;
  c.burst = [] {
    BurstSpec b;
    std::string error;
    EXPECT_TRUE(parse_burst_spec("onoff:2:6", &b, &error)) << error;
    return b;
  }();

  const FuzzRunner predicate = [](const FuzzCase& x) -> std::string {
    return x.traffic != "none" || !x.demands.empty() ? "synthetic" : "";
  };
  const FuzzCase shrunk = shrink_fuzz_case(c, predicate);
  EXPECT_EQ(shrunk.traffic, "none");
  EXPECT_TRUE(shrunk.burst.stationary());
  EXPECT_EQ(shrunk.demands.size(), 1u);
  EXPECT_NE(predicate(shrunk), "");
}

// A passing case is returned untouched — the shrinker must not "improve"
// a case that does not fail.
TEST(FuzzShrink, PassingCaseIsUntouched) {
  FuzzCase c;
  c.algorithm = "dimension-order";
  c.n = 6;
  c.k = 2;
  c.budget = 256;
  c.faults = schedule_of("node:14@3-10");
  c.demands = {{7, 29, 2}, {5, 30, 1}};
  const FuzzCase shrunk = shrink_fuzz_case(c);  // production run_fuzz_case
  EXPECT_EQ(format_fuzz_case(shrunk), format_fuzz_case(c));
}

// Snapshot round trip mid-window: restore() re-derives the availability
// state from (schedule, step), so a serialize→parse→restore cycle during
// an active fault window must not perturb the run.
TEST(FaultInjection, SnapshotRoundTripInsideFaultWindow) {
  FuzzCase c;
  c.algorithm = "dimension-order";
  c.n = 6;
  c.k = 2;
  c.budget = 512;
  c.ckpt = 10;  // inside the node:14 window below
  c.faults = schedule_of("node:14@3-30");
  const Mesh mesh = Mesh::square(c.n);
  c.demands = random_partial_permutation(mesh, 0.5, 21);
  EXPECT_EQ(run_fuzz_case(c), "");
}

}  // namespace
}  // namespace mr
