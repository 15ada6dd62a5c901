// Time-varying traffic sources (traffic/burst.hpp): spec grammar round
// trips, stream determinism, duty-cycle / long-run rate accuracy,
// mid-stream snapshot round trips, bad-blob negatives, and the
// stationarity gate on the saturation search.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "sim/snapshot.hpp"
#include "topo/mesh.hpp"
#include "traffic/burst.hpp"
#include "traffic/saturation.hpp"
#include "traffic/source.hpp"

namespace mr {
namespace {

TrafficSpec uniform_spec(double rate, std::uint64_t seed) {
  TrafficSpec s;
  s.pattern = TrafficPattern::UniformRandom;
  s.rate = rate;
  s.seed = seed;
  return s;
}

BurstSpec burst_of(const std::string& text) {
  BurstSpec b;
  std::string error;
  EXPECT_TRUE(parse_burst_spec(text, &b, &error)) << error;
  return b;
}

std::vector<std::string> burst_specs() {
  return {"onoff:4:12", "mmpp:0.2:0.1", "drift:8"};
}

TEST(BurstSpec, FormatParseRoundTrip) {
  for (const std::string& text :
       {std::string("none"), std::string("onoff:4:12"),
        std::string("mmpp:0.2:0.1"), std::string("drift:8")}) {
    const BurstSpec b = burst_of(text);
    EXPECT_EQ(format_burst_spec(b), text);
    const BurstSpec again = burst_of(format_burst_spec(b));
    EXPECT_EQ(format_burst_spec(again), text);
  }
  EXPECT_TRUE(burst_of("").stationary());
  EXPECT_TRUE(burst_of("none").stationary());
  EXPECT_FALSE(burst_of("onoff:1:1").stationary());
}

TEST(BurstSpec, MalformedSpecsRejected) {
  BurstSpec b;
  std::string error;
  for (const char* bad :
       {"onoff", "onoff:4", "onoff:0:4", "onoff:4:x", "mmpp:0.2",
        "mmpp:0:0.1", "mmpp:1.5:0.1", "drift", "drift:0", "drift:abc",
        "sawtooth:3",
        // Whole decimal fields in range only: no clamping, no sign.
        "onoff:99999999999999999999:4", "onoff:+4:4", "drift:4 "}) {
    EXPECT_FALSE(parse_burst_spec(bad, &b, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(BurstSource, DeterministicUnderSeed) {
  const Mesh mesh = Mesh::square(8);
  for (const std::string& text : burst_specs()) {
    const BurstSpec b = burst_of(text);
    auto a1 = make_traffic_source(mesh, uniform_spec(0.3, 42), b);
    auto a2 = make_traffic_source(mesh, uniform_spec(0.3, 42), b);
    const Workload w1 = materialize_traffic(*a1, 1, 80);
    const Workload w2 = materialize_traffic(*a2, 1, 80);
    ASSERT_EQ(w1.size(), w2.size()) << text;
    for (std::size_t i = 0; i < w1.size(); ++i) {
      EXPECT_EQ(w1[i].source, w2[i].source);
      EXPECT_EQ(w1[i].dest, w2[i].dest);
      EXPECT_EQ(w1[i].injected_at, w2[i].injected_at);
    }
  }
}

TEST(BurstSource, OnOffDutyCycleIsExact) {
  const Mesh mesh = Mesh::square(6);
  const BurstSpec b = burst_of("onoff:4:12");
  OnOffSource source(mesh, uniform_spec(0.5, 7), b);
  const Workload w = materialize_traffic(source, 1, 160);
  // Step 1 opens the first ON window: steps 1..4 on, 5..16 off, 17..20
  // on, ... — no demand may carry an OFF-step injection time.
  for (const Demand& d : w) {
    const Step phase = (d.injected_at - 1) % 16;
    EXPECT_LT(phase, 4) << "demand injected during an OFF window at step "
                        << d.injected_at;
  }
  EXPECT_GT(w.size(), 0u);
}

TEST(BurstSource, LongRunRateMatchesPrediction) {
  const Mesh mesh = Mesh::square(8);
  const double rate = 0.4;
  constexpr Step kSteps = 4000;
  for (const std::string& text : burst_specs()) {
    const BurstSpec b = burst_of(text);
    auto source = make_traffic_source(mesh, uniform_spec(rate, 11), b);
    const Workload w = materialize_traffic(*source, 1, kSteps);
    const double observed =
        static_cast<double>(w.size()) /
        (static_cast<double>(mesh.num_terminals()) * kSteps);
    const double predicted = long_run_rate(b, rate);
    // Uniform keeps ~1/n self-addressed draws out of the stream, so allow
    // a generous relative band on top of sampling noise.
    EXPECT_NEAR(observed, predicted, 0.12 * predicted + 0.01)
        << text << ": observed " << observed << " predicted " << predicted;
  }
}

TEST(BurstSource, SnapshotRoundTripMidStream) {
  const Mesh mesh = Mesh::square(8);
  for (const std::string& text : burst_specs()) {
    const BurstSpec b = burst_of(text);
    const TrafficSpec t = uniform_spec(0.3, 99);
    auto full = make_traffic_source(mesh, t, b);
    const Workload reference = materialize_traffic(*full, 1, 60);

    auto first = make_traffic_source(mesh, t, b);
    Workload prefix = materialize_traffic(*first, 1, 25);
    const std::string blob = first->save_state();

    auto resumed = make_traffic_source(mesh, t, b);
    resumed->restore_state(blob);
    const Workload suffix = materialize_traffic(*resumed, 26, 60);

    prefix.insert(prefix.end(), suffix.begin(), suffix.end());
    ASSERT_EQ(prefix.size(), reference.size()) << text;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(prefix[i].source, reference[i].source) << text;
      EXPECT_EQ(prefix[i].dest, reference[i].dest) << text;
      EXPECT_EQ(prefix[i].injected_at, reference[i].injected_at) << text;
    }
  }
}

TEST(BurstSource, RestoreRejectsForeignAndMalformedBlobs) {
  const Mesh mesh = Mesh::square(4);
  const TrafficSpec t = uniform_spec(0.2, 5);
  OnOffSource onoff(mesh, t, burst_of("onoff:2:2"));
  MmppSource mmpp(mesh, t, burst_of("mmpp:0.3:0.3"));
  DriftingHotspotSource drift(mesh, t, burst_of("drift:4"));

  // A blob saved by one kind must not restore into another.
  EXPECT_THROW(onoff.restore_state(mmpp.save_state()), SnapshotError);
  EXPECT_THROW(mmpp.restore_state(drift.save_state()), SnapshotError);
  EXPECT_THROW(drift.restore_state(onoff.save_state()), SnapshotError);
  // Garbage and truncation.
  EXPECT_THROW(onoff.restore_state("not a blob"), SnapshotError);
  EXPECT_THROW(mmpp.restore_state("mmpp/1 0 0"), SnapshotError);
  // Round trip still works after the failed attempts.
  onoff.restore_state(onoff.save_state());
}

TEST(BurstSource, DriftSinkWalksTheTerminalSpace) {
  const Mesh mesh = Mesh::square(6);
  TrafficSpec t = uniform_spec(0.3, 3);
  DriftingHotspotSource source(mesh, t, burst_of("drift:8"));
  const NodeId first = source.sink_at(1);
  EXPECT_EQ(source.sink_at(8), first);  // same period window
  EXPECT_EQ(source.sink_at(9),
            static_cast<NodeId>((first + 1) % mesh.num_terminals()));
  // The walk covers the whole terminal space and wraps.
  EXPECT_EQ(source.sink_at(1 + 8 * static_cast<Step>(mesh.num_terminals())),
            first);
}

TEST(Saturation, RejectsNonStationaryTraffic) {
  SaturationSpec spec;
  spec.base.width = 4;
  spec.base.height = 4;
  spec.base.queue_capacity = 2;
  spec.base.algorithm = "dimension-order";
  spec.base.traffic = uniform_spec(0.1, 1);
  spec.base.burst = burst_of("onoff:4:4");
  EXPECT_THROW(find_saturation_rate(spec), NonStationaryTrafficError);
}

}  // namespace
}  // namespace mr
