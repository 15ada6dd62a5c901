#include "traffic/steady_state.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "core/assert.hpp"
#include "core/json_min.hpp"
#include "core/stats.hpp"
#include "routing/registry.hpp"
#include "topo/registry.hpp"
#include "sim/engine.hpp"
#include "traffic/pump.hpp"

namespace mr {
namespace {

/// Routes each step digest's injection/delivery counters into the phase
/// the step belongs to. Prepare-time events (step 0) count as warmup.
class PhaseAccountant final : public StepObserver {
 public:
  PhaseAccountant(Step warmup_end, Step measure_end, TrafficPhaseStats& warmup,
                  TrafficPhaseStats& measure, TrafficPhaseStats& drain)
      : warmup_end_(warmup_end),
        measure_end_(measure_end),
        warmup_(warmup),
        measure_(measure),
        drain_(drain) {}

  void on_prepare(const Sim& e, const StepDigest& d) override {
    (void)e;
    warmup_.injected += d.injections;
    warmup_.delivered += d.deliveries;
  }
  void on_step(const Sim& e, const StepDigest& d) override {
    (void)e;
    TrafficPhaseStats& phase = d.step <= warmup_end_    ? warmup_
                               : d.step <= measure_end_ ? measure_
                                                        : drain_;
    phase.injected += d.injections;
    phase.delivered += d.deliveries;
  }

 private:
  Step warmup_end_;
  Step measure_end_;
  TrafficPhaseStats& warmup_;
  TrafficPhaseStats& measure_;
  TrafficPhaseStats& drain_;
};

/// Phase-accounting aux blob for mid-run checkpoints: the six streamed
/// counters the PhaseAccountant has accumulated (steps/offered are
/// recomputed at run end from the engine/pump, which the snapshot covers).
std::string acct_blob(const SteadyStateResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "acct/1 %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                " %" PRId64 " %" PRId64,
                r.warmup.injected, r.warmup.delivered, r.measure.injected,
                r.measure.delivered, r.drain.injected, r.drain.delivered);
  return buf;
}

void restore_acct(const std::string& blob, SteadyStateResult* r) {
  if (std::sscanf(blob.c_str(),
                  "acct/1 %" SCNd64 " %" SCNd64 " %" SCNd64 " %" SCNd64
                  " %" SCNd64 " %" SCNd64,
                  &r->warmup.injected, &r->warmup.delivered,
                  &r->measure.injected, &r->measure.delivered,
                  &r->drain.injected, &r->drain.delivered) != 6)
    throw SnapshotError(SnapshotError::Kind::Format,
                        "steady-state checkpoint: bad acct/1 blob");
}

}  // namespace

std::unique_ptr<Topology> steady_state_topology(const SteadyStateSpec& spec) {
  return make_topology(spec.resolved_topology(), spec.width, spec.height);
}

SteadyStateResult run_steady_state(const SteadyStateSpec& spec,
                                   TrafficSource& source) {
  const CheckpointSpec& ckpt = spec.checkpoint;
  if (ckpt.enabled()) {
    std::string done;
    if (read_text_file(ckpt.done_path(), &done)) {
      SteadyStateResult recorded;
      std::string error;
      if (!steady_state_result_from_json(done, &recorded, &error))
        throw SnapshotError(SnapshotError::Kind::Format,
                            ckpt.done_path() + ": " + error);
      return recorded;
    }
  }
  MR_REQUIRE_MSG(spec.width >= 1 && spec.height >= 1,
                 "mesh dimensions must be >= 1");
  MR_REQUIRE_MSG(spec.warmup_steps >= 0, "warmup_steps must be >= 0");
  MR_REQUIRE_MSG(spec.measure_steps >= 1, "measure_steps must be >= 1");
  MR_REQUIRE_MSG(spec.stationarity_windows >= 2,
                 "stationarity needs >= 2 windows");

  const std::unique_ptr<Topology> topo = steady_state_topology(spec);
  const auto nodes = static_cast<std::int64_t>(topo->num_terminals());
  std::unique_ptr<Algorithm> algorithm = make_algorithm(spec.algorithm);

  Engine::Config config;
  config.queue_capacity = spec.queue_capacity;
  config.stall_limit = spec.stall_limit;
  config.stall_counts_pending_injections = true;
  Engine engine(*topo, config, *algorithm);

  const Step warmup_end = spec.warmup_steps;
  const Step inject_end = spec.warmup_steps + spec.measure_steps;
  Step drain_budget = spec.drain_budget;
  if (drain_budget == 0) {
    // Generous for sub-saturation loads (a backlog of a few packets per
    // node plus the mesh diameter), bounded so saturated runs terminate.
    drain_budget = std::max<Step>(1024, 4 * nodes) +
                   4 * static_cast<Step>(spec.width + spec.height);
  }
  const Step max_steps = inject_end + drain_budget;

  SteadyStateResult r;
  PhaseAccountant accountant(warmup_end, inject_end, r.warmup, r.measure,
                             r.drain);
  engine.add_observer(static_cast<StepObserver*>(&accountant));

  TrafficPump pump(engine, source, inject_end, spec.pump_ahead);

  std::optional<EngineSnapshot> resume;
  if (ckpt.enabled()) {
    std::string bytes;
    if (read_text_file(ckpt.snapshot_path(), &bytes))
      resume = parse_snapshot(bytes);
  }
  if (resume) {
    const std::string* source_blob = resume->find_aux("source");
    const std::string* pump_blob = resume->find_aux("pump");
    const std::string* acct = resume->find_aux("acct");
    if (!source_blob || !pump_blob || !acct)
      throw SnapshotError(SnapshotError::Kind::Format,
                          "steady-state checkpoint is missing the "
                          "source/pump/acct aux state");
    source.restore_state(*source_blob);
    pump.restore_state(*pump_blob);
    restore_acct(*acct, &r);
    engine.restore(*resume);
  } else {
    pump.prime();
    engine.prepare();
  }

  // run_to_drain, with a snapshot dropped every ckpt.every steps.
  const auto maybe_checkpoint = [&] {
    if (!ckpt.enabled() || engine.step() % ckpt.every != 0) return;
    EngineSnapshot snap = engine.snapshot();
    snap.set_aux("source", source.save_state());
    snap.set_aux("pump", pump.save_state());
    snap.set_aux("acct", acct_blob(r));
    write_snapshot_file(ckpt.snapshot_path(), snap);
  };
  while (!engine.stalled() && engine.step() < max_steps) {
    pump.advance();
    if (engine.all_delivered()) break;  // stream exhausted and drained
    if (!engine.step_once()) break;
    maybe_checkpoint();
  }
  const Step last = engine.step();

  r.steps = last;
  r.stalled = engine.stalled();
  r.drained = engine.all_delivered() && pump.exhausted();
  r.max_queue = engine.max_occupancy_seen();
  r.total_moves = engine.total_moves();
  r.total_offered = pump.offered();
  r.total_delivered = static_cast<std::int64_t>(engine.delivered_count());
  r.backlog_end = static_cast<std::int64_t>(engine.num_packets()) -
                  r.total_delivered;

  r.warmup.steps = std::min(last, warmup_end);
  r.measure.steps = std::clamp<Step>(last - warmup_end, 0, spec.measure_steps);
  r.drain.steps = std::max<Step>(last - inject_end, 0);
  r.warmup.offered = pump.offered_between(1, warmup_end);
  r.measure.offered = pump.offered_between(warmup_end + 1, inject_end);
  r.drain.offered = 0;  // the source never injects past inject_end

  if (r.measure.steps > 0) {
    const double denom =
        static_cast<double>(nodes) * static_cast<double>(r.measure.steps);
    r.offered_rate = static_cast<double>(r.measure.offered) / denom;
    r.accepted_rate = static_cast<double>(r.measure.delivered) / denom;
  }

  // Latency and stationarity over the packets offered during the
  // measurement phase. Windows partition the phase by injection step, so
  // a still-filling network shows up as later windows with higher means.
  Histogram latency;
  const int windows = spec.stationarity_windows;
  const Step window_width =
      std::max<Step>(1, (spec.measure_steps + windows - 1) / windows);
  std::vector<RunningStat> window_latency(static_cast<std::size_t>(windows));
  for (const Packet& p : engine.all_packets()) {
    if (p.injected_at <= warmup_end || p.injected_at > inject_end) continue;
    ++r.measured_packets;
    if (!p.delivered()) continue;
    ++r.measured_delivered;
    const auto lat = static_cast<std::int64_t>(p.delivered_at - p.injected_at);
    latency.add(lat);
    const auto w = static_cast<std::size_t>(
        std::min<Step>((p.injected_at - warmup_end - 1) / window_width,
                       windows - 1));
    window_latency[w].add(static_cast<double>(lat));
  }
  r.latency = latency_summary(latency);

  const bool measure_complete = r.measure.steps == spec.measure_steps;
  bool windows_populated = true;
  for (const RunningStat& w : window_latency)
    if (w.count() == 0) windows_populated = false;
  if (measure_complete && windows_populated && latency.total() > 0) {
    const int half = windows / 2;
    double first = 0, second = 0;
    std::int64_t first_n = 0, second_n = 0;
    for (int i = 0; i < half; ++i) {
      first += window_latency[static_cast<std::size_t>(i)].sum();
      first_n += window_latency[static_cast<std::size_t>(i)].count();
    }
    for (int i = windows - half; i < windows; ++i) {
      second += window_latency[static_cast<std::size_t>(i)].sum();
      second_n += window_latency[static_cast<std::size_t>(i)].count();
    }
    const double mean_first = first / static_cast<double>(first_n);
    const double mean_second = second / static_cast<double>(second_n);
    const double overall = latency.mean();
    r.stationarity_drift =
        overall > 0 ? std::abs(mean_second - mean_first) / overall : 0;
    r.stationary = r.stationarity_drift <= spec.stationarity_tolerance;
  }

  if (ckpt.enabled())
    write_text_file_atomic(ckpt.done_path(), steady_state_result_to_json(r));
  return r;
}

SteadyStateResult run_steady_state(const SteadyStateSpec& spec) {
  const std::unique_ptr<Topology> topo = steady_state_topology(spec);
  const std::unique_ptr<TrafficSource> source =
      make_traffic_source(*topo, spec.traffic, spec.burst);
  return run_steady_state(spec, *source);
}

namespace {

void phase_json(std::ostringstream& os, const char* name,
                const TrafficPhaseStats& p) {
  os << "\"" << name << "\": {\"steps\": " << p.steps
     << ", \"offered\": " << p.offered << ", \"injected\": " << p.injected
     << ", \"delivered\": " << p.delivered << "}";
}

bool parse_phase(const json::Value& doc, const char* name,
                 TrafficPhaseStats* out) {
  const json::Value* p = doc.find(name);
  if (!p || !p->is_object()) return false;
  const auto get = [&](const char* key, std::int64_t* v) {
    const json::Value* field = p->find(key);
    if (!field || !field->is_number()) return false;
    *v = static_cast<std::int64_t>(field->number);
    return true;
  };
  std::int64_t steps = 0;
  if (!get("steps", &steps) || !get("offered", &out->offered) ||
      !get("injected", &out->injected) || !get("delivered", &out->delivered))
    return false;
  out->steps = steps;
  return true;
}

}  // namespace

std::string steady_state_result_to_json(const SteadyStateResult& r) {
  std::ostringstream os;
  os << "{\"format\": \"meshroute-steady/1\", ";
  phase_json(os, "warmup", r.warmup);
  os << ", ";
  phase_json(os, "measure", r.measure);
  os << ", ";
  phase_json(os, "drain", r.drain);
  os << ", \"offered_rate\": " << json::exact_number_to_string(r.offered_rate)
     << ", \"accepted_rate\": " << json::exact_number_to_string(r.accepted_rate)
     << ", \"latency\": {\"mean\": " << json::exact_number_to_string(r.latency.mean)
     << ", \"p50\": " << r.latency.p50 << ", \"p95\": " << r.latency.p95
     << ", \"p99\": " << r.latency.p99 << ", \"max\": " << r.latency.max << "}"
     << ", \"measured_packets\": " << r.measured_packets
     << ", \"measured_delivered\": " << r.measured_delivered
     << ", \"stationary\": " << (r.stationary ? "true" : "false")
     << ", \"stationarity_drift\": "
     << json::exact_number_to_string(r.stationarity_drift)
     << ", \"drained\": " << (r.drained ? "true" : "false")
     << ", \"stalled\": " << (r.stalled ? "true" : "false")
     << ", \"steps\": " << r.steps << ", \"max_queue\": " << r.max_queue
     << ", \"total_moves\": " << r.total_moves
     << ", \"total_offered\": " << r.total_offered
     << ", \"total_delivered\": " << r.total_delivered
     << ", \"backlog_end\": " << r.backlog_end << "}\n";
  return os.str();
}

bool steady_state_result_from_json(const std::string& text,
                                   SteadyStateResult* result,
                                   std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error) *error = "meshroute-steady/1: " + what;
    return false;
  };
  std::string parse_error;
  std::optional<json::Value> doc = json::parse(text, &parse_error);
  if (!doc || !doc->is_object())
    return fail("not a JSON object: " + parse_error);
  const json::Value* format = doc->find("format");
  if (!format || !format->is_string() || format->string != "meshroute-steady/1")
    return fail("missing or wrong \"format\"");

  SteadyStateResult r;
  if (!parse_phase(*doc, "warmup", &r.warmup) ||
      !parse_phase(*doc, "measure", &r.measure) ||
      !parse_phase(*doc, "drain", &r.drain))
    return fail("malformed phase record");

  const auto get_int = [&](const char* key, std::int64_t* v) {
    const json::Value* field = doc->find(key);
    if (!field || !field->is_number()) return false;
    *v = static_cast<std::int64_t>(field->number);
    return true;
  };
  const auto get_double = [&](const char* key, double* v) {
    const json::Value* field = doc->find(key);
    if (!field || !field->is_number()) return false;
    *v = field->number;
    return true;
  };
  const auto get_bool = [&](const char* key, bool* v) {
    const json::Value* field = doc->find(key);
    if (!field || !field->is_bool()) return false;
    *v = field->boolean;
    return true;
  };

  const json::Value* latency = doc->find("latency");
  if (!latency || !latency->is_object()) return fail("missing \"latency\"");
  const json::Value* mean = latency->find("mean");
  if (!mean || !mean->is_number()) return fail("malformed \"latency\"");
  r.latency.mean = mean->number;
  const auto get_lat = [&](const char* key, Step* v) {
    const json::Value* field = latency->find(key);
    if (!field || !field->is_number()) return false;
    *v = static_cast<Step>(field->number);
    return true;
  };
  if (!get_lat("p50", &r.latency.p50) || !get_lat("p95", &r.latency.p95) ||
      !get_lat("p99", &r.latency.p99) || !get_lat("max", &r.latency.max))
    return fail("malformed \"latency\"");

  std::int64_t steps = 0, max_queue = 0, measured_packets = 0,
               measured_delivered = 0;
  if (!get_double("offered_rate", &r.offered_rate) ||
      !get_double("accepted_rate", &r.accepted_rate) ||
      !get_double("stationarity_drift", &r.stationarity_drift) ||
      !get_int("measured_packets", &measured_packets) ||
      !get_int("measured_delivered", &measured_delivered) ||
      !get_bool("stationary", &r.stationary) ||
      !get_bool("drained", &r.drained) || !get_bool("stalled", &r.stalled) ||
      !get_int("steps", &steps) || !get_int("max_queue", &max_queue) ||
      !get_int("total_moves", &r.total_moves) ||
      !get_int("total_offered", &r.total_offered) ||
      !get_int("total_delivered", &r.total_delivered) ||
      !get_int("backlog_end", &r.backlog_end))
    return fail("missing scalar field");
  r.steps = steps;
  r.max_queue = static_cast<int>(max_queue);
  r.measured_packets = static_cast<std::size_t>(measured_packets);
  r.measured_delivered = static_cast<std::size_t>(measured_delivered);

  *result = r;
  return true;
}

}  // namespace mr
