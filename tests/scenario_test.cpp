// The scenario layer: registry lookup, spec → RunResult round-trip, the
// JSON backend (schema validation), and determinism of parallel sweeps.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/assert.hpp"
#include "core/json_min.hpp"
#include "harness/scenario.hpp"
#include "scenarios.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

ScenarioSpec tiny_spec(const std::string& id, const std::string& label,
                       int n = 8) {
  ScenarioSpec spec;
  spec.id = id;
  spec.label = label;
  spec.title = "tiny round-trip";
  spec.paper_ref = "test";
  spec.body = [n](ScenarioReport& ctx) {
    RunSpec rs;
    rs.width = rs.height = n;
    rs.queue_capacity = 2;
    rs.algorithm = "bounded-dimension-order";
    const Mesh mesh = Mesh::square(n);
    const RunResult r =
        ctx.run("transpose", rs, transpose(mesh));
    Table t({"steps", "delivered"});
    t.row().add(r.steps).add(r.all_delivered ? "yes" : "no");
    ctx.table(t);
    ctx.note("done");
    ctx.check("all-delivered", r.all_delivered);
  };
  spec.expect = [](const ScenarioResult& result) {
    return !result.runs.empty() && result.runs[0].run.steps > 0;
  };
  return spec;
}

TEST(ScenarioRegistry, LookupByIdAndLabelCaseInsensitive) {
  ScenarioRegistry registry;
  registry.add(tiny_spec("T01", "tiny-one"));
  EXPECT_NE(registry.find("T01"), nullptr);
  EXPECT_NE(registry.find("t01"), nullptr);
  EXPECT_NE(registry.find("tiny-one"), nullptr);
  EXPECT_NE(registry.find("TINY-ONE"), nullptr);
  EXPECT_EQ(registry.find("T02"), nullptr);
  EXPECT_EQ(registry.find(""), nullptr);
  EXPECT_EQ(registry.find("T01")->label, "tiny-one");
}

TEST(ScenarioRegistry, RejectsDuplicatesAndEmpty) {
  ScenarioRegistry registry;
  registry.add(tiny_spec("T01", "tiny-one"));
  EXPECT_THROW(registry.add(tiny_spec("T01", "other-label")),
               InvariantViolation);
  EXPECT_THROW(registry.add(tiny_spec("T02", "tiny-one")),
               InvariantViolation);
  EXPECT_THROW(registry.add(tiny_spec("", "x")), InvariantViolation);
  ScenarioSpec no_body;
  no_body.id = "T03";
  no_body.label = "no-body";
  EXPECT_THROW(registry.add(std::move(no_body)), InvariantViolation);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ScenarioRegistry, BuiltinSuiteHasAllSixteenExperiments) {
  const ScenarioRegistry& registry = scenarios::builtin();
  EXPECT_GE(registry.size(), 16u);
  for (int i = 1; i <= 16; ++i) {
    char id[8];
    std::snprintf(id, sizeof id, "E%02d", i);
    EXPECT_NE(registry.find(id), nullptr) << id;
  }
  // labels are aliases for the same specs
  EXPECT_EQ(registry.find("main-lower-bound"), registry.find("E01"));
  EXPECT_EQ(registry.find("engine-throughput"), registry.find("E13"));
}

TEST(Scenario, RoundTripCapturesRunsTablesChecksAndExpect) {
  const ScenarioSpec spec = tiny_spec("T01", "tiny-one");
  const ScenarioResult result = run_scenario(spec, {});
  EXPECT_FALSE(result.errored) << result.error;
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0].label, "transpose");
  EXPECT_GT(result.runs[0].run.steps, 0);
  EXPECT_TRUE(result.runs[0].run.all_delivered);
  EXPECT_GE(result.runs[0].run.latency.max, result.runs[0].run.latency.p99);
  ASSERT_EQ(result.tables.size(), 1u);
  // body check + the spec's expect predicate, in order
  ASSERT_EQ(result.checks.size(), 2u);
  EXPECT_EQ(result.checks[0].name, "all-delivered");
  EXPECT_EQ(result.checks[1].name, "expected-bound");
  EXPECT_TRUE(result.passed());
  // markdown backend: header + items in emission order
  const std::string md = result.to_markdown();
  EXPECT_NE(md.find("## T01: tiny round-trip"), std::string::npos);
  EXPECT_NE(md.find("(paper: test)"), std::string::npos);
  EXPECT_NE(md.find("| steps | delivered |"), std::string::npos);
  EXPECT_NE(md.find("done\n"), std::string::npos);
}

TEST(Scenario, BodyExceptionIsCapturedNotPropagated) {
  ScenarioSpec spec;
  spec.id = "T99";
  spec.label = "throws";
  spec.title = "throws";
  spec.paper_ref = "test";
  spec.body = [](ScenarioReport&) {
    throw std::runtime_error("body blew up");
  };
  const ScenarioResult result = run_scenario(spec, {});
  EXPECT_TRUE(result.errored);
  EXPECT_EQ(result.error, "body blew up");
  EXPECT_FALSE(result.passed());
  EXPECT_NE(result.to_markdown().find("ERROR: body blew up"),
            std::string::npos);
}

TEST(Scenario, JsonBackendValidatesAgainstSchema) {
  const ScenarioResult result = run_scenario(tiny_spec("T01", "tiny-one"), {});
  const std::string dir = ::testing::TempDir();
  const std::string path = write_scenario_json(result, dir);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("t01.json"), std::string::npos);

  std::string error;
  EXPECT_TRUE(validate_scenario_json(path, &error)) << error;

  // And the document parses to the fields we wrote.
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string parse_error;
  const auto doc = json::parse(buf.str(), &parse_error);
  ASSERT_TRUE(doc.has_value()) << parse_error;
  EXPECT_EQ(doc->find("schema")->string, kScenarioJsonSchema);
  EXPECT_EQ(doc->find("id")->string, "T01");
  EXPECT_TRUE(doc->find("passed")->boolean);
  ASSERT_EQ(doc->find("runs")->array.size(), 1u);
  EXPECT_EQ(doc->find("tables")->array.size(), 1u);
  // Every run record declares how the engine actually stepped.
  const json::Value* mode = doc->find("runs")->array[0].find("engine_mode");
  ASSERT_NE(mode, nullptr);
  EXPECT_EQ(mode->string, "sequential");
  // Host time of the body, never negative.
  for (const char* key : {"wall_s", "cpu_s"}) {
    const json::Value* v = doc->find(key);
    ASSERT_NE(v, nullptr) << key;
    ASSERT_TRUE(v->is_number()) << key;
    EXPECT_GE(v->number, 0) << key;
  }
}

TEST(Scenario, ValidationRequiresHostTimes) {
  const std::string good =
      run_scenario(tiny_spec("T01", "tiny-one"), {}).to_json();
  const std::string dir = ::testing::TempDir();
  const auto rewrite = [&](const std::string& from, const std::string& to) {
    std::string doc = good;
    const std::size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    const std::size_t end = doc.find('\n', at);
    doc.replace(at, end - at, to);
    const std::string path = dir + "/host_times.json";
    std::ofstream(path) << doc;
    return path;
  };
  std::string error;
  EXPECT_FALSE(validate_scenario_json(rewrite("\"cpu_s\"", ""), &error));
  EXPECT_NE(error.find("cpu_s"), std::string::npos) << error;
  EXPECT_FALSE(validate_scenario_json(
      rewrite("\"wall_s\"", "\"wall_s\": -1,"), &error));
  EXPECT_NE(error.find("wall_s"), std::string::npos) << error;
  EXPECT_FALSE(validate_scenario_json(
      rewrite("\"wall_s\"", "\"wall_s\": \"1\","), &error));
  EXPECT_TRUE(validate_scenario_json(
      rewrite("\"wall_s\"", "\"wall_s\": 0,"), &error))
      << error;
}

TEST(Scenario, ValidationRejectsCorruptDocuments) {
  const std::string dir = ::testing::TempDir();
  std::string error;

  const std::string missing = dir + "/does_not_exist.json";
  EXPECT_FALSE(validate_scenario_json(missing, &error));

  const std::string bad_schema = dir + "/bad_schema.json";
  {
    std::ofstream out(bad_schema);
    out << "{\"schema\": \"something-else/1\"}";
  }
  EXPECT_FALSE(validate_scenario_json(bad_schema, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);

  const std::string not_json = dir + "/not_json.json";
  {
    std::ofstream out(not_json);
    out << "## E01: this is markdown";
  }
  EXPECT_FALSE(validate_scenario_json(not_json, &error));
}

TEST(Scenario, ParallelSweepIsDeterministicAcrossJobCounts) {
  // Same specs through 1 worker and several workers: position-addressed
  // results must render identically (markdown, and JSON apart from the
  // host times wall_s/cpu_s, which are zeroed before comparing).
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 6; ++i)
    specs.push_back(tiny_spec("T0" + std::to_string(i),
                              "tiny-" + std::to_string(i), 6 + i));
  std::vector<const ScenarioSpec*> ptrs;
  for (const ScenarioSpec& s : specs) ptrs.push_back(&s);

  ScenarioOptions serial;
  serial.jobs = 1;
  ScenarioOptions wide;
  wide.jobs = 4;
  const std::vector<ScenarioResult> a = run_scenarios(ptrs, serial);
  const std::vector<ScenarioResult> b = run_scenarios(ptrs, wide);
  ASSERT_EQ(a.size(), ptrs.size());
  ASSERT_EQ(b.size(), ptrs.size());
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    EXPECT_EQ(a[i].id, specs[i].id);  // position-addressed
    EXPECT_EQ(a[i].to_markdown(), b[i].to_markdown()) << specs[i].id;
    ScenarioResult x = a[i];
    ScenarioResult y = b[i];
    x.wall_s = x.cpu_s = y.wall_s = y.cpu_s = 0;
    EXPECT_EQ(x.to_json(), y.to_json()) << specs[i].id;
  }
}

TEST(Scenario, ScaleNamesRoundTrip) {
  EXPECT_STREQ(scale_name(Scale::Small), "small");
  EXPECT_STREQ(scale_name(Scale::Default), "default");
  EXPECT_STREQ(scale_name(Scale::Large), "large");
}

}  // namespace
}  // namespace mr
