// meshroute_bench — the single driver for the experiment suite.
//
// Usage:
//   meshroute_bench --list                 enumerate registered scenarios
//                                          and routing algorithms
//   meshroute_bench [--run <id|label>]...  run a selection (default: all)
//   meshroute_bench --json=DIR             also write <dir>/<id>.json per
//                                          scenario (schema
//                                          meshroute-scenario/1, validated
//                                          after writing)
//   meshroute_bench --telemetry=DIR        export meshroute-telemetry/1
//                                          JSONL + CSV artefacts for every
//                                          scenario run under DIR
//   meshroute_bench --profile              wall-clock the five step phases;
//                                          each run reports a phase table
//   meshroute_bench --smoke                small problem sizes (same as
//                                          MESHROUTE_BENCH_SCALE=small)
//   meshroute_bench --jobs=N               worker threads for the sweep
//                                          (results are position-addressed:
//                                          output is identical for any N)
//   meshroute_bench --seed=S               base RNG seed for stochastic
//                                          scenarios (E11, E17, E18);
//                                          default: each scenario's
//                                          built-in seed. Echoed in the
//                                          JSON records.
//   meshroute_bench --resume=DIR           durable-run store: scenario runs
//                                          write a checkpoint under DIR
//                                          periodically and at the end; a
//                                          re-run resumes each from its
//                                          checkpoint (a finished one steps
//                                          nothing), bit-identically to an
//                                          uninterrupted run
//   meshroute_bench --checkpoint-every=N   checkpoint cadence in steps for
//                                          --resume stores (default 256)
//   meshroute_bench --topology=NAME        registry topology (mesh, torus,
//                                          cmesh-N) applied to every
//                                          scenario run that does not pick
//                                          its own network; see --list
//   meshroute_bench --faults=SPEC          timed link/node fault schedule
//                                          ("node:<id>@<down>[-<up>]" /
//                                          "link:<node>:<N|E|S|W>@<down>
//                                          [-<up>]", comma-separated)
//                                          installed on every scenario run
//                                          that does not carry its own
//   meshroute_bench --adversary            attach the online greedy
//                                          destination-exchange adversary
//                                          to every scenario run (forces
//                                          one row band)
//   meshroute_bench --validate=PATH        only validate an existing JSON
//                                          record (scenario .json or
//                                          telemetry .jsonl)
//   meshroute_bench --fuzz=N               run N differential-fuzz cases
//                                          (optimized engine vs naive
//                                          reference, invariant oracles on);
//                                          --fuzz-seed=S seeds the sampler.
//                                          On failure the shrunk repro spec
//                                          is printed and written to
//                                          fuzz-repro.txt
//   meshroute_bench --fuzz-case=SPEC       re-run one repro spec line
//
// Markdown goes to stdout exactly as the historical per-experiment
// binaries printed it; check verdicts follow each report as "[check]"
// lines. Exit code is 0 iff every selected scenario ran without error and
// every check passed; a malformed command line (numeric flags take
// decimal digits only) prints the usage line and exits 2. CSV export of
// each table still honours MESHROUTE_OUTPUT_DIR.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "core/parse.hpp"
#include "harness/scenario.hpp"
#include "routing/registry.hpp"
#include "scenarios.hpp"
#include "telemetry/export.hpp"
#include "topo/registry.hpp"
#include "workload/catalog.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--run <id|label>]... [--json=DIR] "
               "[--telemetry=DIR] [--profile] [--smoke] [--jobs=N] "
               "[--seed=S] [--engine-shards=S] [--engine-threads=T] "
               "[--topology=NAME] [--faults=SPEC] [--adversary] "
               "[--resume=DIR] [--checkpoint-every=N] "
               "[--validate=PATH] "
               "[--fuzz=N] [--fuzz-seed=S] [--fuzz-case=SPEC]\n",
               argv0);
  return 2;
}

// Parses all of `text` as a decimal integer no smaller than `min` that
// fits in T; false for anything else (sign, blanks, trailing characters,
// overflow).
template <typename T>
bool parse_number(const std::string& text, T min, T* out) {
  T value{};
  if (!mr::parse_decimal(text, &value) || value < min) return false;
  *out = value;
  return true;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mr;

  bool list = false;
  std::size_t fuzz_cases = 0;
  std::uint64_t fuzz_seed = 1;
  std::string fuzz_case_spec;
  std::vector<std::string> selection;
  std::string json_dir;
  ScenarioOptions options;
  options.scale = scale_from_env();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--run") {
      if (i + 1 >= argc) return usage(argv[0]);
      selection.push_back(argv[++i]);
    } else if (arg.rfind("--run=", 0) == 0) {
      selection.push_back(arg.substr(6));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_dir = arg.substr(7);
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      options.telemetry_dir = arg.substr(12);
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg.rfind("--fuzz=", 0) == 0) {
      if (!parse_number(arg.substr(7), std::size_t{1}, &fuzz_cases))
        return usage(argv[0]);
    } else if (arg.rfind("--fuzz-seed=", 0) == 0) {
      if (!parse_number(arg.substr(12), std::uint64_t{0}, &fuzz_seed))
        return usage(argv[0]);
    } else if (arg.rfind("--fuzz-case=", 0) == 0) {
      fuzz_case_spec = arg.substr(12);
    } else if (arg == "--smoke") {
      options.scale = Scale::Small;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_number(arg.substr(7), std::uint64_t{1}, &options.seed))
        return usage(argv[0]);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_number(arg.substr(7), std::size_t{0}, &options.jobs))
        return usage(argv[0]);
    } else if (arg.rfind("--engine-shards=", 0) == 0) {
      if (!parse_number(arg.substr(16), 1, &options.engine_shards))
        return usage(argv[0]);
    } else if (arg.rfind("--engine-threads=", 0) == 0) {
      if (!parse_number(arg.substr(17), 1, &options.engine_threads))
        return usage(argv[0]);
    } else if (arg.rfind("--resume=", 0) == 0) {
      options.checkpoint_dir = arg.substr(9);
      if (options.checkpoint_dir.empty()) return usage(argv[0]);
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      if (!parse_number(arg.substr(19), mr::Step{1},
                        &options.checkpoint_every))
        return usage(argv[0]);
    } else if (arg.rfind("--topology=", 0) == 0) {
      options.topology = arg.substr(11);
      if (!known_topology(options.topology)) {
        std::fprintf(stderr,
                     "error: unknown topology '%s' (try --list)\n",
                     options.topology.c_str());
        return 2;
      }
    } else if (arg.rfind("--faults=", 0) == 0) {
      std::string error;
      if (!parse_fault_schedule(arg.substr(9), &options.faults, &error)) {
        std::fprintf(stderr, "error: malformed --faults schedule: %s\n",
                     error.c_str());
        return 2;
      }
    } else if (arg == "--adversary") {
      options.adversary = true;
    } else if (arg.rfind("--validate=", 0) == 0) {
      const std::string path = arg.substr(11);
      std::string error;
      const bool ok = ends_with(path, ".jsonl")
                          ? validate_telemetry_jsonl(path, &error)
                          : validate_scenario_json(path, &error);
      if (!ok) {
        std::fprintf(stderr, "validate: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
      }
      std::printf("validate: %s ok\n", path.c_str());
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  if (!fuzz_case_spec.empty()) {
    FuzzCase fuzz_case;
    std::string error;
    if (!parse_fuzz_case(fuzz_case_spec, &fuzz_case, &error)) {
      std::fprintf(stderr, "fuzz-case: malformed spec: %s\n", error.c_str());
      return 2;
    }
    error = run_fuzz_case(fuzz_case);
    if (!error.empty()) {
      std::fprintf(stderr, "fuzz-case FAIL: %s\n", error.c_str());
      return 1;
    }
    std::printf("fuzz-case ok\n");
    return 0;
  }

  if (fuzz_cases > 0) {
    const FuzzReport report = run_fuzz(fuzz_cases, fuzz_seed, std::cerr);
    if (report.failures > 0) {
      std::fprintf(stderr, "fuzz: FAIL after %zu case(s): %s\n",
                   report.cases_run, report.first_error.c_str());
      std::fprintf(stderr, "fuzz: repro: --fuzz-case=\"%s\"\n",
                   report.first_repro.c_str());
      std::ofstream repro("fuzz-repro.txt");
      repro << report.first_repro << "\n";
      return 1;
    }
    std::printf("fuzz: %zu case(s) ok (seed %llu)\n", report.cases_run,
                static_cast<unsigned long long>(fuzz_seed));
    return 0;
  }

  const ScenarioRegistry& registry = scenarios::builtin();

  if (list) {
    std::printf("scenarios:\n");
    for (const ScenarioSpec* spec : registry.all())
      std::printf("  %-4s %-26s %s\n", spec->id.c_str(), spec->label.c_str(),
                  spec->title.c_str());
    std::printf("\nalgorithms:\n");
    for (const AlgorithmInfo& info : algorithm_catalog())
      std::printf("  %-24s [%-10s] %s\n", info.name.c_str(),
                  info.layout == QueueLayout::PerInlink ? "per-inlink"
                                                        : "central",
                  info.description.c_str());
    std::printf("\ntopologies:\n");
    for (const TopologyInfo& info : topology_catalog())
      std::printf("  %-24s [%-10s] %s\n", info.name.c_str(),
                  info.wraps ? "wrapping" : "flat", info.description.c_str());
    std::printf("\nworkloads:\n");
    for (const WorkloadInfo& info : workload_catalog())
      std::printf("  %-24s [%-9s] %s%s%s%s\n", info.name.c_str(),
                  info.kind.c_str(), info.description.c_str(),
                  info.params.empty() ? "" : " (",
                  info.params.c_str(), info.params.empty() ? "" : ")");
    return 0;
  }

  std::vector<const ScenarioSpec*> specs;
  if (selection.empty()) {
    specs = registry.all();
  } else {
    for (const std::string& want : selection) {
      const ScenarioSpec* spec = registry.find(want);
      if (spec == nullptr) {
        std::fprintf(stderr, "error: no scenario named '%s' (try --list)\n",
                     want.c_str());
        return 2;
      }
      specs.push_back(spec);
    }
  }

  const std::vector<ScenarioResult> results = run_scenarios(specs, options);

  bool ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    if (i > 0) std::printf("\n");
    std::fputs(r.to_markdown().c_str(), stdout);
    if (r.errored) {
      std::printf("[check] %s ERROR: %s\n", r.id.c_str(), r.error.c_str());
    }
    for (const ScenarioCheck& c : r.checks) {
      std::printf("[check] %s %s: %s%s%s\n", r.id.c_str(), c.name.c_str(),
                  c.pass ? "pass" : "FAIL", c.detail.empty() ? "" : " — ",
                  c.detail.c_str());
    }
    ok = ok && r.passed();
    std::size_t fallbacks = 0;
    for (const ScenarioRunRecord& rec : r.runs)
      if (rec.run.engine_mode == EngineMode::SequentialFallback) ++fallbacks;
    if (fallbacks > 0)
      std::fprintf(stderr,
                   "notice: %s: %zu run(s) used one row band despite "
                   "--engine-shards/--engine-threads (step interceptors "
                   "require one band)\n",
                   r.id.c_str(), fallbacks);
    for (const ScenarioRunRecord& rec : r.runs) {
      if (rec.run.telemetry_path.empty()) continue;
      std::string error;
      if (!validate_telemetry_jsonl(rec.run.telemetry_path, &error)) {
        std::fprintf(stderr, "error: telemetry %s fails validation: %s\n",
                     rec.run.telemetry_path.c_str(), error.c_str());
        ok = false;
      }
    }
    if (!json_dir.empty()) {
      const std::string path = write_scenario_json(r, json_dir);
      if (path.empty()) {
        std::fprintf(stderr, "error: cannot write JSON for %s under %s\n",
                     r.id.c_str(), json_dir.c_str());
        ok = false;
        continue;
      }
      std::string error;
      if (!validate_scenario_json(path, &error)) {
        std::fprintf(stderr, "error: %s fails schema validation: %s\n",
                     path.c_str(), error.c_str());
        ok = false;
      }
    }
  }
  std::fflush(stdout);
  return ok ? 0 : 1;
}
