// The §6 router under the one algorithm contract. All of its routing state
// lives in the Sim's packet and node state words, so it must step
// identically on the one-band engine, on three row bands stepped by two
// threads (band instances other than 0 are never init()ed), on the naive
// ReferenceEngine, and on fresh engines with fresh router instances
// restored from snapshots taken mid-March, mid-Sort&Smooth and at a
// segment boundary. Fingerprints must agree after every step, to the end
// of the schedule; FastRouteOracle checks Lemmas 29–32 on the way.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/fastroute_oracle.hpp"
#include "check/reference_engine.hpp"
#include "fastroute/fastroute.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

constexpr std::int32_t kN = 27;

const FastRouteAlgorithm::Options& options_of(const Algorithm& algorithm) {
  return dynamic_cast<const FastRouteAlgorithm&>(algorithm).options();
}

std::unique_ptr<Engine> make_engine(const Mesh& mesh,
                                    const std::string& algorithm, int shards,
                                    int threads) {
  Engine::Config config;
  config.queue_capacity = FastRouteAlgorithm().queue_bound();
  config.stall_limit = 0;  // idle phases are part of the schedule
  config.shards = shards;
  config.threads = threads;
  return std::make_unique<Engine>(
      mesh, config, [algorithm] { return make_algorithm(algorithm); });
}

/// Steps every engine in lock-step until `until` or until the network
/// drains. After each step listed in `restore_at`, the one-band and the
/// banded engine are snapshotted and each snapshot is restored into a fresh
/// engine (fresh router instances, never init()ed) that joins the
/// lock-step. Returns the last step executed.
Step lockstep(const std::string& algorithm, const Workload& workload,
              Step until, const std::vector<Step>& restore_at) {
  const Mesh mesh = Mesh::square(kN);
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(make_engine(mesh, algorithm, 1, 1));
  engines.push_back(make_engine(mesh, algorithm, 3, 2));
  EXPECT_EQ(engines[1]->shard_count(), 3);
  const std::unique_ptr<Algorithm> ref_algorithm = make_algorithm(algorithm);
  ReferenceEngine ref(mesh, FastRouteAlgorithm().queue_bound(),
                      /*stall_limit=*/0, *ref_algorithm);
  FastRouteOracle lemmas(kN, options_of(*ref_algorithm));
  ref.add_observer(&lemmas);
  for (const Demand& d : workload) {
    ref.add_packet(d.source, d.dest, d.injected_at);
    for (const auto& e : engines) e->add_packet(d.source, d.dest, d.injected_at);
  }
  ref.prepare();
  for (const auto& e : engines) e->prepare();
  for (const auto& e : engines) EXPECT_EQ(e->fingerprint(), ref.fingerprint());

  Step t = 0;
  while (t < until && !ref.all_delivered()) {
    ++t;
    ref.step_once();
    const std::uint64_t fp = ref.fingerprint();
    for (std::size_t i = 0; i < engines.size(); ++i) {
      engines[i]->step_once();
      if (engines[i]->fingerprint() != fp) {
        ADD_FAILURE() << algorithm << ": engine " << i
                      << " diverged from the reference at step " << t;
        return t;
      }
    }
    if (std::find(restore_at.begin(), restore_at.end(), t) == restore_at.end())
      continue;
    for (int shards : {1, 3}) {
      const Engine& source = *engines[shards == 1 ? 0 : 1];
      std::unique_ptr<Engine> fresh =
          make_engine(mesh, algorithm, shards, shards == 1 ? 1 : 2);
      fresh->restore(source.snapshot());
      EXPECT_EQ(fresh->fingerprint(), fp);
      engines.push_back(std::move(fresh));
    }
  }
  EXPECT_EQ(engines.size(), 2 + 2 * restore_at.size());
  for (const auto& e : engines) EXPECT_EQ(e->step(), t);
  return t;
}

/// Restore points: mid-March and mid-Sort&Smooth(even) of the first
/// phase, and the Balance → March boundary into the horizontal phase.
std::vector<Step> restore_points(const FastRouteAlgorithm::Schedule& s) {
  return {s.segments[0].start + 10, s.segments[1].start + 3,
          s.segments[3].end()};
}

void full_run(const std::string& algorithm, const Workload& workload) {
  const FastRouteAlgorithm::Schedule schedule(
      kN, options_of(*make_algorithm(algorithm)));
  const Step last =
      lockstep(algorithm, workload, schedule.length, restore_points(schedule));
  EXPECT_GT(last, schedule.segments[3].end());
  EXPECT_LE(last, schedule.length);
}

TEST(FastRouteLockstep, BaselineRandomPermutation) {
  full_run("fastroute", random_permutation(Mesh::square(kN), 3));
}

TEST(FastRouteLockstep, BaselineTranspose) {
  full_run("fastroute", transpose(Mesh::square(kN)));
}

TEST(FastRouteLockstep, ImprovedRandomPermutation) {
  full_run("fastroute-improved", random_permutation(Mesh::square(kN), 3));
}

TEST(FastRouteLockstep, ImprovedTranspose) {
  full_run("fastroute-improved", transpose(Mesh::square(kN)));
}

// Short budget for the sanitizer presets: the NE class's vertical and
// horizontal phases (March, both Sort&Smooth substeps and Balance, twice),
// which exercise every field of the state words.
TEST(FastRouteLockstep, ShortBudgetNorthEastPhases) {
  const FastRouteAlgorithm::Schedule schedule(
      kN, FastRouteAlgorithm::Options::baseline());
  ASSERT_EQ(schedule.segments[7].kind, FastRouteAlgorithm::Kind::Balance);
  ASSERT_TRUE(schedule.segments[7].horizontal);
  const Step until = schedule.segments[7].end();
  EXPECT_EQ(lockstep("fastroute", random_permutation(Mesh::square(kN), 3),
                     until, restore_points(schedule)),
            until);
}

}  // namespace
}  // namespace mr
