#include "harness/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "core/assert.hpp"
#include "core/parallel.hpp"
#include "harness/csv_export.hpp"
#include "core/json_min.hpp"
#include "telemetry/phase_profile.hpp"

namespace mr {

namespace {

std::string lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Run labels go into checkpoint file stems; keep them filesystem-safe.
std::string sanitize_key(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// CPU time consumed so far by the calling thread, in seconds.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

Scale scale_from_env() {
  const char* env = std::getenv("MESHROUTE_BENCH_SCALE");
  if (env == nullptr) return Scale::Default;
  const std::string v(env);
  if (v == "small") return Scale::Small;
  if (v == "large") return Scale::Large;
  return Scale::Default;
}

const char* scale_name(Scale s) {
  switch (s) {
    case Scale::Small: return "small";
    case Scale::Default: return "default";
    case Scale::Large: return "large";
  }
  return "?";
}

// --- ScenarioResult --------------------------------------------------------

bool ScenarioResult::passed() const {
  if (errored) return false;
  for (const ScenarioCheck& c : checks)
    if (!c.pass) return false;
  return true;
}

std::string ScenarioResult::to_markdown() const {
  std::ostringstream os;
  os << "## " << id << ": " << title << "\n";
  os << "(paper: " << paper_ref << ")\n\n";
  for (const ScenarioItem& item : items) {
    if (item.kind == ScenarioItem::Kind::Note) {
      os << item.text << "\n";
    } else {
      os << tables[item.table_index].to_markdown() << "\n";
    }
  }
  if (errored) os << "ERROR: " << error << "\n";
  return os.str();
}

std::string ScenarioResult::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"" << kScenarioJsonSchema << "\",\n";
  os << "  \"id\": \"" << json::escape(id) << "\",\n";
  os << "  \"label\": \"" << json::escape(label) << "\",\n";
  os << "  \"title\": \"" << json::escape(title) << "\",\n";
  os << "  \"paper_ref\": \"" << json::escape(paper_ref) << "\",\n";
  os << "  \"scale\": \"" << scale_name(scale) << "\",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"passed\": " << (passed() ? "true" : "false") << ",\n";
  os << "  \"wall_s\": " << wall_s << ",\n";
  os << "  \"cpu_s\": " << cpu_s << ",\n";
  if (errored) os << "  \"error\": \"" << json::escape(error) << "\",\n";

  os << "  \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const ScenarioCheck& c = checks[i];
    os << (i > 0 ? "," : "") << "\n    {\"name\": \"" << json::escape(c.name)
       << "\", \"pass\": " << (c.pass ? "true" : "false");
    if (!c.detail.empty())
      os << ", \"detail\": \"" << json::escape(c.detail) << "\"";
    os << "}";
  }
  os << (checks.empty() ? "" : "\n  ") << "],\n";

  os << "  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScenarioRunRecord& rec = runs[i];
    const RunResult& r = rec.run;
    os << (i > 0 ? "," : "") << "\n    {\"label\": \""
       << json::escape(rec.label) << "\", \"steps\": " << r.steps
       << ", \"moves\": " << r.total_moves
       << ", \"packets\": " << r.packets << ", \"delivered\": " << r.delivered
       << ", \"all_delivered\": " << (r.all_delivered ? "true" : "false")
       << ", \"stalled\": " << (r.stalled ? "true" : "false")
       << ", \"max_queue\": " << r.max_queue
       << ", \"latency_p50\": " << r.latency.p50
       << ", \"latency_p95\": " << r.latency.p95
       << ", \"latency_p99\": " << r.latency.p99
       << ", \"latency_max\": " << r.latency.max
       << ", \"engine_mode\": \"" << to_string(r.engine_mode) << "\"";
    if (!r.telemetry_path.empty())
      os << ", \"telemetry\": \"" << json::escape(r.telemetry_path) << "\"";
    os << "}";
  }
  os << (runs.empty() ? "" : "\n  ") << "],\n";

  os << "  \"notes\": [";
  bool first_note = true;
  for (const ScenarioItem& item : items) {
    if (item.kind != ScenarioItem::Kind::Note) continue;
    os << (first_note ? "" : ",") << "\n    \"" << json::escape(item.text)
       << "\"";
    first_note = false;
  }
  os << (first_note ? "" : "\n  ") << "],\n";

  os << "  \"tables\": [";
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const Table& table = tables[t];
    os << (t > 0 ? "," : "") << "\n    {\"name\": \"" << lower(id) << "_" << t
       << "\", \"headers\": [";
    for (std::size_t c = 0; c < table.headers().size(); ++c)
      os << (c > 0 ? ", " : "") << "\"" << json::escape(table.headers()[c])
         << "\"";
    os << "], \"rows\": [";
    for (std::size_t row = 0; row < table.rows().size(); ++row) {
      os << (row > 0 ? ", " : "") << "[";
      const auto& cells = table.rows()[row];
      for (std::size_t c = 0; c < cells.size(); ++c)
        os << (c > 0 ? ", " : "") << "\"" << json::escape(cells[c]) << "\"";
      os << "]";
    }
    os << "]}";
  }
  os << (tables.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

void ScenarioResult::export_tables() const {
  for (std::size_t t = 0; t < tables.size(); ++t)
    export_csv(tables[t], id + "_" + std::to_string(t));
}

// --- ScenarioReport --------------------------------------------------------

void ScenarioReport::note(const std::string& text) {
  out_->items.push_back({ScenarioItem::Kind::Note, text, 0});
}

void ScenarioReport::table(const Table& t) {
  out_->tables.push_back(t);
  out_->items.push_back(
      {ScenarioItem::Kind::Table, std::string(), out_->tables.size() - 1});
}

void ScenarioReport::check(const std::string& name, bool pass,
                           const std::string& detail) {
  out_->checks.push_back({name, pass, detail});
}

void ScenarioReport::record(const std::string& run_label, const RunResult& r) {
  out_->runs.push_back({run_label, r});
}

RunResult ScenarioReport::run(const std::string& run_label,
                              const RunSpec& spec, const Workload& workload,
                              const RunHooks& hooks) {
  RunSpec effective = spec;
  if (!effective.telemetry.enabled()) {
    if (!options_.telemetry_dir.empty()) {
      effective.telemetry.series = true;
      effective.telemetry.export_dir = options_.telemetry_dir;
      effective.telemetry.slug = lower(out_->id) + "_" + run_label;
    }
    effective.telemetry.profile = options_.profile;
  }
  if (effective.engine_shards == 1 && effective.engine_threads == 1) {
    effective.engine_shards = options_.engine_shards;
    effective.engine_threads = options_.engine_threads;
  }
  if (effective.topology.empty() && !options_.topology.empty()) {
    effective.topology = options_.topology;
  }
  if (effective.faults.empty() && !options_.faults.empty())
    effective.faults = options_.faults;
  if (!effective.adversary && options_.adversary) effective.adversary = true;
  if (!effective.checkpoint.enabled())
    effective.checkpoint = checkpoint(run_label);
  const RunResult r = run_workload(effective, workload, hooks);
  record(run_label, r);
  if (r.phase_profile) {
    note("phase profile (" + run_label + "):");
    table(phase_profile_table(*r.phase_profile));
  }
  return r;
}

CheckpointSpec ScenarioReport::checkpoint(const std::string& label) const {
  CheckpointSpec spec;
  if (options_.checkpoint_dir.empty()) return spec;  // disabled
  spec.dir = options_.checkpoint_dir;
  spec.every = options_.checkpoint_every;
  spec.key = lower(out_->id) + "_" + sanitize_key(label);
  return spec;
}

// --- ScenarioRegistry ------------------------------------------------------

void ScenarioRegistry::add(ScenarioSpec spec) {
  MR_REQUIRE_MSG(!spec.id.empty(), "scenario id must not be empty");
  MR_REQUIRE_MSG(!spec.label.empty(), "scenario label must not be empty");
  MR_REQUIRE_MSG(spec.body != nullptr,
                 "scenario '" << spec.id << "' has no body");
  MR_REQUIRE_MSG(find(spec.id) == nullptr,
                 "duplicate scenario id '" << spec.id << "'");
  MR_REQUIRE_MSG(find(spec.label) == nullptr,
                 "duplicate scenario label '" << spec.label << "'");
  specs_.push_back(std::make_unique<ScenarioSpec>(std::move(spec)));
}

const ScenarioSpec* ScenarioRegistry::find(
    const std::string& id_or_label) const {
  const std::string key = lower(id_or_label);
  for (const auto& spec : specs_)
    if (lower(spec->id) == key || lower(spec->label) == key)
      return spec.get();
  return nullptr;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::all() const {
  std::vector<const ScenarioSpec*> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) out.push_back(spec.get());
  return out;
}

// --- execution -------------------------------------------------------------

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const ScenarioOptions& options) {
  ScenarioResult result;
  result.id = spec.id;
  result.label = spec.label;
  result.title = spec.title;
  result.paper_ref = spec.paper_ref;
  result.scale = options.scale;
  result.seed = options.seed;
  ScenarioReport report(options, &result);
  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = thread_cpu_seconds();
  try {
    spec.body(report);
    if (spec.expect)
      report.check("expected-bound", spec.expect(result));
  } catch (const std::exception& e) {
    result.errored = true;
    result.error = e.what();
  } catch (...) {
    result.errored = true;
    result.error = "unknown exception";
  }
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  result.cpu_s = thread_cpu_seconds() - cpu_start;
  result.export_tables();
  return result;
}

std::vector<ScenarioResult> run_scenarios(
    const std::vector<const ScenarioSpec*>& specs,
    const ScenarioOptions& options) {
  std::vector<ScenarioResult> results(specs.size());
  parallel_for(
      specs.size(),
      [&](std::size_t i) { results[i] = run_scenario(*specs[i], options); },
      options.jobs);
  return results;
}

// --- JSON backend ----------------------------------------------------------

std::string write_scenario_json(const ScenarioResult& result,
                                const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return {};
  const std::string path = dir + "/" + lower(result.id) + ".json";
  std::ofstream out(path);
  if (!out) return {};
  out << result.to_json();
  return out.good() ? path : std::string();
}

bool validate_scenario_json(const std::string& path, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = path + ": " + msg;
    return false;
  };
  std::ifstream in(path);
  if (!in.good()) return fail("cannot read");
  std::ostringstream buf;
  buf << in.rdbuf();

  std::string parse_error;
  const auto doc = json::parse(buf.str(), &parse_error);
  if (!doc) return fail("malformed JSON: " + parse_error);
  if (!doc->is_object()) return fail("top level is not an object");

  const json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kScenarioJsonSchema)
    return fail("missing or wrong \"schema\"");
  for (const char* key : {"id", "label", "title", "paper_ref", "scale"}) {
    const json::Value* v = doc->find(key);
    if (v == nullptr || !v->is_string() || v->string.empty())
      return fail(std::string("missing or empty \"") + key + "\"");
  }
  const json::Value* passed = doc->find("passed");
  if (passed == nullptr || !passed->is_bool())
    return fail("missing boolean \"passed\"");
  for (const char* key : {"wall_s", "cpu_s"}) {
    const json::Value* v = doc->find(key);
    if (v == nullptr || !v->is_number() || v->number < 0)
      return fail(std::string("missing or negative \"") + key + "\"");
  }

  const json::Value* checks = doc->find("checks");
  if (checks == nullptr || !checks->is_array())
    return fail("missing \"checks\" array");
  for (std::size_t i = 0; i < checks->array.size(); ++i) {
    const json::Value& c = checks->array[i];
    const json::Value* name = c.find("name");
    const json::Value* pass = c.find("pass");
    if (!c.is_object() || name == nullptr || !name->is_string() ||
        pass == nullptr || !pass->is_bool())
      return fail("checks[" + std::to_string(i) + "] malformed");
  }

  const json::Value* runs = doc->find("runs");
  if (runs == nullptr || !runs->is_array())
    return fail("missing \"runs\" array");
  for (std::size_t i = 0; i < runs->array.size(); ++i) {
    const json::Value& r = runs->array[i];
    if (!r.is_object()) return fail("runs[" + std::to_string(i) + "] malformed");
    const json::Value* label = r.find("label");
    if (label == nullptr || !label->is_string())
      return fail("runs[" + std::to_string(i) + "] missing \"label\"");
    for (const char* key :
         {"steps", "moves", "packets", "delivered", "max_queue",
          "latency_p50", "latency_p95", "latency_p99", "latency_max"}) {
      const json::Value* v = r.find(key);
      if (v == nullptr || !v->is_number() || v->number < 0)
        return fail("runs[" + std::to_string(i) + "] missing or negative \"" +
                    key + "\"");
    }
    // Optional (older records predate it), but must name a real EngineMode
    // when present.
    const json::Value* mode = r.find("engine_mode");
    if (mode != nullptr &&
        (!mode->is_string() || !parse_engine_mode(mode->string)))
      return fail("runs[" + std::to_string(i) + "] malformed \"engine_mode\"");
  }

  const json::Value* tables = doc->find("tables");
  if (tables == nullptr || !tables->is_array())
    return fail("missing \"tables\" array");
  for (std::size_t t = 0; t < tables->array.size(); ++t) {
    const json::Value& table = tables->array[t];
    const std::string where = "tables[" + std::to_string(t) + "]";
    const json::Value* headers = table.find("headers");
    const json::Value* rows = table.find("rows");
    if (!table.is_object() || headers == nullptr || !headers->is_array() ||
        headers->array.empty() || rows == nullptr || !rows->is_array())
      return fail(where + " malformed");
    for (const json::Value& h : headers->array)
      if (!h.is_string()) return fail(where + " has a non-string header");
    for (std::size_t row = 0; row < rows->array.size(); ++row) {
      const json::Value& cells = rows->array[row];
      if (!cells.is_array() || cells.array.size() > headers->array.size())
        return fail(where + " row " + std::to_string(row) +
                    " does not match headers");
      for (const json::Value& cell : cells.array)
        if (!cell.is_string())
          return fail(where + " row " + std::to_string(row) +
                      " has a non-string cell");
    }
  }
  return true;
}

}  // namespace mr
