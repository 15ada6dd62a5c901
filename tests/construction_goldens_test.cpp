// Pinned results of the three lower-bound constructions (paper §3–§5):
// exchange counts, the final configuration, the constructed permutation
// and the replay comparison. Any change to the construction driver, the
// exchange rules or the replay must reproduce these values exactly.
#include <gtest/gtest.h>

#include <cstdint>

#include "lower_bound/dim_order_construction.hpp"
#include "lower_bound/farthest_first_construction.hpp"
#include "lower_bound/main_construction.hpp"

namespace mr {
namespace {

/// FNV-1a over (source, dest, injected_at) of every demand, in order.
std::uint64_t workload_hash(const Workload& w) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const Demand& d : w) {
    mix(static_cast<std::uint64_t>(d.source));
    mix(static_cast<std::uint64_t>(d.dest));
    mix(static_cast<std::uint64_t>(d.injected_at));
  }
  return h;
}

struct Golden {
  std::size_t exchanges;
  std::size_t undelivered;
  std::uint64_t final_fingerprint;
  std::uint64_t constructed_hash;
  bool stepwise_match;
  Step first_mismatch;
  bool final_match;
  std::size_t undelivered_at_certified;
  Step replay_total_steps;
};

template <typename Replay>
void expect_golden(const Replay& r, const Golden& g) {
  EXPECT_EQ(r.construction.exchanges, g.exchanges);
  EXPECT_EQ(r.construction.undelivered, g.undelivered);
  EXPECT_EQ(r.construction.final_fingerprint, g.final_fingerprint);
  EXPECT_EQ(workload_hash(r.construction.constructed), g.constructed_hash);
  EXPECT_EQ(r.stepwise_match, g.stepwise_match);
  EXPECT_EQ(r.first_mismatch, g.first_mismatch);
  EXPECT_EQ(r.final_match, g.final_match);
  EXPECT_EQ(r.undelivered_at_certified, g.undelivered_at_certified);
  EXPECT_EQ(r.replay_total_steps, g.replay_total_steps);
  EXPECT_TRUE(r.replay_all_delivered);
}

TEST(ConstructionGoldens, MainDimensionOrder) {
  const Mesh mesh = Mesh::square(60);
  MainConstruction construction(mesh, main_lb_params(60, 1));
  const auto r = construction.verify_replay("dimension-order", 1);
  expect_golden(r, {10, 94, 10560479774862851774ULL, 696825408108495156ULL,
                    true, -1, true, 94, 175});
  EXPECT_EQ(r.construction.last_class_in_box, 82);
  EXPECT_EQ(r.construction.max_escapes_per_step, 1);
}

TEST(ConstructionGoldens, MainAdaptiveAlternate) {
  const Mesh mesh = Mesh::square(60);
  MainConstruction construction(mesh, main_lb_params(60, 1));
  const auto r = construction.verify_replay("adaptive-alternate", 1);
  expect_golden(r, {28, 94, 17218205395134604122ULL, 11997465417501671012ULL,
                    true, -1, true, 94, 179});
  EXPECT_EQ(r.construction.last_class_in_box, 82);
  EXPECT_EQ(r.construction.max_escapes_per_step, 1);
}

TEST(ConstructionGoldens, DimOrder) {
  const Mesh mesh = Mesh::square(60);
  DimOrderConstruction construction(mesh, dim_order_lb_params(60, 1));
  const auto r = construction.verify_replay("dimension-order", 1);
  expect_golden(r, {98, 325, 8881443300964005635ULL, 15927366862745246586ULL,
                    true, -1, true, 325, 782});
}

TEST(ConstructionGoldens, FarthestFirstK1) {
  for (const std::int32_t n : {60, 108}) {
    SCOPED_TRACE(n);
    const Mesh mesh = Mesh::square(n);
    FarthestFirstConstruction construction(mesh,
                                           farthest_first_lb_params(n, 1));
    const auto r = construction.verify_replay("farthest-first", 1);
    // n = 60 makes no exchange; n = 108 exercises the westernmost-partner
    // rule.
    if (n == 60)
      expect_golden(r, {0, 264, 9634874141683834569ULL,
                        11696096283079273568ULL, true, -1, true, 264, 526});
    if (n == 108)
      expect_golden(r, {72, 907, 10948036347864819891ULL,
                        17798873247062252717ULL, true, -1, true, 907, 1675});
    EXPECT_TRUE(r.construction.row_order_ok);
  }
}

// At k = 2 exact replay breaks: pins the first stepwise mismatch.
TEST(ConstructionGoldens, FarthestFirstK2StepwiseMismatch) {
  const Mesh mesh = Mesh::square(120);
  FarthestFirstConstruction construction(mesh,
                                         farthest_first_lb_params(120, 2));
  const auto r = construction.verify_replay("farthest-first", 2);
  expect_golden(r, {161, 224, 17140830983879487262ULL, 974722631496810903ULL,
                    false, 18, false, 223, 761});
  EXPECT_TRUE(r.construction.row_order_ok);
}

}  // namespace
}  // namespace mr
