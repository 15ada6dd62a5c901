// The declarative scenario layer: every experiment (E01–E16 and anything
// future) is a ScenarioSpec registered in a ScenarioRegistry and executed
// by run_scenario(s), which captures everything the experiment reports —
// tables, prose notes, named check verdicts, structured run records — in a
// ScenarioResult with one reporting backend (markdown text, JSON, CSV).
//
// Scenario bodies never touch stdout: they write through the
// ScenarioReport handed to them, so a sweep of scenarios can run across a
// thread pool (core/parallel) with position-addressed results and the
// rendered output stays deterministic and identical to a serial run.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "harness/runner.hpp"

namespace mr {

/// Problem-size knob shared by all scenarios. Small is the CI smoke
/// setting; Large extends the sweeps (laptop-unfriendly sizes).
enum class Scale { Small, Default, Large };

/// Reads MESHROUTE_BENCH_SCALE ("small"/"large"; anything else Default).
Scale scale_from_env();
const char* scale_name(Scale s);

/// One named pass/fail verdict (a lemma/bound predicate the scenario
/// asserts about its own measurements).
struct ScenarioCheck {
  std::string name;
  bool pass = false;
  std::string detail;  ///< optional context shown on failure
};

/// One structured simulation record: the RunResult of a run the scenario
/// performed, labelled. Serialized into the JSON backend so downstream
/// tooling gets steps/moves/queues/latency percentiles without scraping
/// tables.
struct ScenarioRunRecord {
  std::string label;
  RunResult run;
};

/// Ordered output stream of a scenario: notes and tables interleave in
/// emission order (tables live in ScenarioResult::tables, referenced by
/// index, because Table has no default constructor).
struct ScenarioItem {
  enum class Kind { Note, Table };
  Kind kind = Kind::Note;
  std::string text;            ///< note text (Kind::Note)
  std::size_t table_index = 0; ///< into ScenarioResult::tables (Kind::Table)
};

struct ScenarioResult {
  std::string id;        ///< e.g. "E01"
  std::string label;     ///< e.g. "main-lower-bound"
  std::string title;
  std::string paper_ref;
  Scale scale = Scale::Default;
  std::uint64_t seed = 0;  ///< --seed override in effect (0 = defaults)

  std::vector<ScenarioItem> items;
  std::vector<Table> tables;
  std::vector<ScenarioCheck> checks;
  std::vector<ScenarioRunRecord> runs;

  bool errored = false;  ///< body threw; `error` holds the message
  std::string error;

  /// Host time of the body and its expect predicate: wall clock, and the
  /// CPU time of the thread that ran them (work the body hands to other
  /// threads is not counted). Recorded in the JSON record only; the
  /// markdown report carries no timing.
  double wall_s = 0;
  double cpu_s = 0;

  /// True iff the body completed and every check passed.
  bool passed() const;

  /// The experiment's report exactly as the pre-registry binaries printed
  /// it: "## <id>: <title>", the paper reference, then notes and tables in
  /// emission order.
  std::string to_markdown() const;

  /// Machine-readable record, schema kScenarioJsonSchema.
  std::string to_json() const;

  /// Writes each table as <id>_<index>.csv via export_csv when
  /// MESHROUTE_OUTPUT_DIR is set (the historical per-binary behaviour).
  void export_tables() const;
};

inline constexpr const char* kScenarioJsonSchema = "meshroute-scenario/1";

struct ScenarioOptions {
  Scale scale = Scale::Default;
  std::size_t jobs = 0;  ///< worker threads for run_scenarios; 0 = default
  /// When set, every ScenarioReport::run exports meshroute-telemetry/1
  /// artefacts under this directory (slug "<id>_<run label>") unless the
  /// run's spec already configured its own telemetry.
  std::string telemetry_dir;
  /// When true, runs are phase-profiled and each records a profile table.
  bool profile = false;
  /// Base RNG seed for stochastic scenarios (meshroute_bench --seed).
  /// 0 = each scenario's built-in default; scenarios read it through
  /// ScenarioReport::seed_or and the value is echoed in the JSON record.
  std::uint64_t seed = 0;
  /// Sharded engine mode applied to every ScenarioReport::run whose spec
  /// did not set its own (meshroute_bench --engine-shards /
  /// --engine-threads). Results are bit-identical across any setting;
  /// only wall-clock changes.
  int engine_shards = 1;
  int engine_threads = 1;
  /// Registry topology applied to every ScenarioReport::run whose spec did
  /// not set its own topology or torus flag (meshroute_bench --topology=).
  /// Scenarios that construct topology-specific workloads keep their own
  /// network. Empty = no override.
  std::string topology;
  /// Fault schedule applied to every ScenarioReport::run whose spec did
  /// not set its own (meshroute_bench --faults=SPEC). Scenarios that need
  /// a pristine network keep their spec's empty schedule untouched only if
  /// they set one explicitly; otherwise the override applies. Empty = no
  /// faults.
  FaultSchedule faults;
  /// Attach the online GreedyAdversary to every ScenarioReport::run that
  /// did not set its own adversary flag (meshroute_bench --adversary).
  bool adversary = false;
  /// Checkpoint store for durable sweeps (meshroute_bench --resume=DIR).
  /// When set, every ScenarioReport::run checkpoints/resumes under this
  /// directory keyed "<lowercase id>_<run label>", and scenario bodies that
  /// drive runs directly derive keys via ScenarioReport::checkpoint().
  /// Empty = no checkpointing.
  std::string checkpoint_dir;
  Step checkpoint_every = 256;  ///< snapshot interval (--checkpoint-every)
};

/// The write handle a scenario body reports through.
class ScenarioReport {
 public:
  ScenarioReport(const ScenarioOptions& options, ScenarioResult* out)
      : options_(options), out_(out) {}

  Scale scale() const { return options_.scale; }
  /// The --seed override, or `fallback` (the scenario's historical
  /// default) when the user did not pass one.
  std::uint64_t seed_or(std::uint64_t fallback) const {
    return options_.seed != 0 ? options_.seed : fallback;
  }

  void note(const std::string& text);
  void table(const Table& t);
  void check(const std::string& name, bool pass,
             const std::string& detail = "");
  void record(const std::string& run_label, const RunResult& r);

  /// Convenience: run_workload + record() in one call. Applies the
  /// ScenarioOptions telemetry/profile/checkpoint settings to the spec
  /// (without overriding a spec whose own TelemetrySpec/CheckpointSpec is
  /// already enabled) and, when profiling, appends the phase table to the
  /// report.
  RunResult run(const std::string& run_label, const RunSpec& spec,
                const Workload& workload, const RunHooks& hooks = {});

  /// Checkpoint store slot for work the scenario drives itself (e.g. a
  /// run_steady_state sweep): dir/interval from the options, key
  /// "<lowercase id>_<label>" (label sanitised for filenames). Disabled
  /// spec (empty dir) when the options carry no checkpoint store.
  CheckpointSpec checkpoint(const std::string& label) const;

 private:
  ScenarioOptions options_;
  ScenarioResult* out_;
};

struct ScenarioSpec {
  std::string id;         ///< display id, unique, e.g. "E01"
  std::string label;      ///< kebab-case alias, unique, e.g. "main-lower-bound"
  std::string title;
  std::string paper_ref;  ///< paper anchor, e.g. "Theorem 14, §3–§4"
  std::function<void(ScenarioReport&)> body;
  /// Optional expected-bound predicate evaluated after the body; recorded
  /// as a check named "expected-bound".
  std::function<bool(const ScenarioResult&)> expect;
};

/// Ordered collection of scenario specs with id/label lookup (both
/// case-insensitive). Registration order is preserved by all().
class ScenarioRegistry {
 public:
  /// Throws InvariantViolation on empty/duplicate id or label or null body.
  void add(ScenarioSpec spec);

  /// Lookup by id or label; nullptr when absent.
  const ScenarioSpec* find(const std::string& id_or_label) const;

  std::vector<const ScenarioSpec*> all() const;
  std::size_t size() const { return specs_.size(); }

 private:
  // deque: pointers handed out by find()/all() stay valid across add().
  std::vector<std::unique_ptr<ScenarioSpec>> specs_;
};

/// Executes one spec. Exceptions from the body are captured into
/// result.errored/error, never propagated.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ScenarioOptions& options);

/// Executes the specs through core/parallel with `options.jobs` workers;
/// results are position-addressed (results[i] belongs to specs[i]), so the
/// output is identical for any worker count.
std::vector<ScenarioResult> run_scenarios(
    const std::vector<const ScenarioSpec*>& specs,
    const ScenarioOptions& options);

/// Writes result.to_json() as <dir>/<lowercase id>.json. Returns the path
/// written, or empty on I/O failure.
std::string write_scenario_json(const ScenarioResult& result,
                                const std::string& dir);

/// Validates a scenario JSON file against kScenarioJsonSchema (shape and
/// required fields). On failure returns false and stores a message.
bool validate_scenario_json(const std::string& path, std::string* error);

}  // namespace mr
