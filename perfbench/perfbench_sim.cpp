// perfbench_sim — runs one benchmark workload against the simulator's
// public API and prints one JSON object with the raw per-repetition
// samples. run.py builds this binary, aggregates the samples into medians
// and quartiles, checks them against goldens.json and prints the result.
//
//   perfbench_sim --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 repeats untraced simulations until S seconds have passed.
// --trace 1 spends half of S on untraced repetitions (the baseline of
// trace.overhead_frac) and half on traced ones, then runs the cross-checks.
// Every repetition of one invocation simulates the same seeded input.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/oracles.hpp"
#include "core/json_min.hpp"
#include "lower_bound/constants.hpp"
#include "lower_bound/main_construction.hpp"
#include "routing/registry.hpp"
#include "shims.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "topo/mesh.hpp"
#include "traffic/pump.hpp"
#include "traffic/source.hpp"
#include "workload/permutation.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using mr::Step;

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  const char* name;
  const char* algorithm;
  std::int32_t n;  ///< mesh side (construction side for adversarial-main)
  int k;
  int shards = 1;
  int threads = 1;
  double rate = 0;         ///< open loop: per-node per-step injection rate
  Step inject_steps = 0;   ///< open loop: injection window (0 = closed batch)
  Step snapshot_every = 0; ///< in-loop snapshot interval (0 = none)
  bool observed = false;   ///< attach the oracles and a TelemetryCollector
  bool adversarial = false;
};

constexpr Spec kSpecs[] = {
    {"perm-dx-sharded", "bounded-dimension-order", 192, 2, 4, 2},
    {"openloop-observed", "emps", 64, 2, 1, 1, 0.022, 1000, 256, true},
    {"openloop-saturated", "bounded-dimension-order", 32, 2, 1, 1, 0.2, 300},
    {"adversarial-main", "dimension-order", 384, 1, 1, 1, 0, 0, 0, false,
     true},
};

/// Consecutive steps without progress that count as a deadlock. Far above
/// any wait these workloads see, far below the engine's default.
constexpr Step kStallLimit = 2000;
constexpr Step kTrafficAhead = 32;
/// Set-up-only samples taken after each untraced repetition, so that the
/// set-up samples are spread over the whole run like the repetitions.
constexpr int kSetupSamplesPerRep = 3;
/// Speed probe (see probe_s): loop iterations of one probe, and the
/// probe's time on an uncontended core of the 4-core Xeon VM the sizes
/// were tuned on. Host times are reported at that speed.
constexpr int kProbeIters = 60000;
constexpr double kProbeReferenceS = 0.000171;
/// Wall time between two probes inside a timed loop: short against the
/// spells in which a co-tenant slows the core, long against the probe.
constexpr double kProbeGapS = 0.003;

Step step_budget(const Spec& s) {
  return s.inject_steps * 40 + 200LL * s.n + 20000;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Machine-speed probe: the time of a fixed register-only loop. It
/// touches no memory and none of the simulator's code, so it reads only
/// how fast the core runs at that moment and leaves the caches as they
/// were. On a shared host a co-tenant on the same core slows it as much as
/// it slows the simulator; dividing a host time by the probes taken around
/// it removes that slowdown (README, "Host time").
double probe_s() {
  std::uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kProbeIters; ++i)
    for (int j = 0; j < 8; ++j) {
      a[j] = a[j] * 0x9E3779B97F4A7C15ULL + (a[(j + 1) & 7] >> 7);
      asm volatile("" : "+r"(a[j]));  // keep every lane a real multiply chain
    }
  return seconds_between(t0, Clock::now());
}

/// Speed probes taken through one timed part, and the wall time between
/// each two consecutive probes (a block). A block's time at the reference
/// speed is its wall time times scale(b). A multi-threaded run is not
/// probed and every scale is 1: the probe reads only the core of the
/// thread that runs it, and on the 4-core VM probing the run's cores from
/// as many threads tracked its speed worse than not scaling at all.
class SpeedLog {
 public:
  explicit SpeedLog(bool probing) : probing_(probing) {
    if (probing_) probes_.push_back(probe_s());
    last_ = Clock::now();
  }

  /// Ends the current block with a probe if kProbeGapS has passed.
  void maybe_probe() {
    if (probing_ && seconds_between(last_, Clock::now()) >= kProbeGapS) end_block();
  }
  /// Ends the last block; call once, after the timed part.
  void finish() { end_block(); }

  std::size_t block() const { return block_s_.size(); }
  double scale(std::size_t b) const {
    return probing_ ? 2 * kProbeReferenceS / (probes_[b] + probes_[b + 1]) : 1;
  }
  /// Wall time of the timed part with the probes left out, and the same at
  /// the reference speed.
  double wall_s() const {
    double s = 0;
    for (const double b : block_s_) s += b;
    return s;
  }
  double ref_s() const {
    double s = 0;
    for (std::size_t b = 0; b < block_s_.size(); ++b) s += block_s_[b] * scale(b);
    return s;
  }

 private:
  void end_block() {
    block_s_.push_back(seconds_between(last_, Clock::now()));
    if (probing_) probes_.push_back(probe_s());
    last_ = Clock::now();
  }

  bool probing_;
  std::vector<double> probes_;
  std::vector<double> block_s_;
  Clock::time_point last_;
};

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// FNV-1a over every packet's identity and delivery step: unlike
/// Sim::fingerprint() (empty once the network drains) it pins when each
/// packet was delivered.
std::uint64_t delivery_hash(const mr::Sim& sim) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const mr::Packet& p : sim.all_packets()) {
    mix(static_cast<std::uint64_t>(p.source));
    mix(static_cast<std::uint64_t>(p.dest));
    mix(static_cast<std::uint64_t>(p.injected_at));
    mix(static_cast<std::uint64_t>(p.delivered_at));
  }
  return h;
}

// ---------------------------------------------------------------------------
// One simulation: topology, input, engine, pump and attached observers.

struct Instance {
  explicit Instance(const Spec& s) : spec(s), mesh(mr::Mesh::square(s.n)) {}
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  const Spec& spec;
  mr::Mesh mesh;
  mr::Workload batch;  ///< closed batch: the demands handed to add_packet
  std::optional<mr::MainConstruction> construction;  ///< adversarial-main
  std::unique_ptr<mr::BernoulliSource> source;
  std::unique_ptr<mr::Engine> engine;
  std::unique_ptr<mr::TrafficPump> pump;
  std::vector<TimedAlgorithm*> timed;  ///< owned by engine

  mr::QueueBoundOracle queue_oracle;
  mr::LinkCapacityOracle link_oracle;
  std::unique_ptr<mr::ProfitableMoveOracle> move_oracle;
  mr::TelemetryCollector telemetry;
  std::vector<std::unique_ptr<TimedObserver>> wrappers;
  InjectionCounter injections;
  double oracles_s = 0;
  double telemetry_s = 0;

  PolicyTimes routing() const {
    PolicyTimes sum;
    for (const TimedAlgorithm* a : timed) sum += a->times();
    return sum;
  }
};

struct RepOptions {
  bool traced = false;
  int threads = -1;  ///< override of Spec::threads (-1 = keep)
  bool for_restore = false;  ///< build(): skip add_packet/prime/prepare
  /// adversarial-main: moves of one run_construction at this seed. Only
  /// traced repetitions attach the StepClock that counts them; untraced
  /// ones take the count from here (see count_construction_moves).
  std::int64_t construction_moves = 0;
};

struct Rep {
  double setup_s = 0, generate_s = 0, prepare_s = 0, run_s = 0, cpu_s = 0;
  /// run_s and cpu_s at the reference speed (SpeedLog).
  double run_ref_s = 0, cpu_ref_s = 0;
  /// Untraced repetitions: the set-up-only samples taken right after it,
  /// as measured and at the reference speed.
  std::vector<double> setup_only_s, setup_only_ref_s;
  std::int64_t moves = 0, sim_steps = 0, delivered = 0, packets = 0;
  std::uint64_t fingerprint = 0, delivery_hash = 0;
  int max_occupancy = 0;
  double latency_p50 = 0, latency_p99 = 0;
  std::size_t latency_count = 0;
  std::vector<double> step_us, step_ref_us;  ///< as measured, at reference speed
  std::string error;  ///< empty = the repetition passed its checks
  /// Traced repetitions only: per-layer values, in output order.
  std::vector<std::pair<std::string, double>> layers;
  std::string last_snapshot;  ///< bytes of the last in-loop snapshot
};

// ---------------------------------------------------------------------------
// Set-up: make_instance() then build(). A repetition and a set-up-only
// sample run exactly these two functions, which add their time to
// Rep::setup_s, so setup_s has one code path.

/// The mesh and the input: a random permutation, or for adversarial-main
/// the construction's geometry (an open-loop source is made by build()).
std::unique_ptr<Instance> make_instance(const Spec& s, std::uint64_t seed,
                                        Rep& rep) {
  const Clock::time_point t0 = Clock::now();
  auto in = std::make_unique<Instance>(s);
  const Clock::time_point g0 = Clock::now();
  if (s.adversarial) {
    mr::MainConstructionOptions options;
    options.placement_seed = seed;
    in->construction.emplace(in->mesh, mr::main_lb_params(s.n, s.k), options);
  } else if (s.inject_steps == 0) {
    in->batch = mr::random_permutation(in->mesh, seed);
  }
  const Clock::time_point g1 = Clock::now();
  rep.generate_s += seconds_between(g0, g1);
  rep.setup_s += seconds_between(t0, g1);
  return in;
}

/// Builds the engine and its companions and feeds it `in.batch` or the
/// pump. Returns after prepare() unless for_restore is set. Adds the source
/// construction and pump priming to rep.generate_s, prepare() to
/// rep.prepare_s and the whole to rep.setup_s.
void build(Instance& in, std::uint64_t seed, const RepOptions& opt, Rep& rep) {
  const Clock::time_point t0 = Clock::now();
  const Spec& s = in.spec;
  mr::Engine::Config config;
  config.queue_capacity = s.k;
  config.stall_limit = kStallLimit;
  config.stall_counts_pending_injections = s.inject_steps > 0;
  config.shards = s.shards;
  config.threads = opt.threads >= 0 ? opt.threads : s.threads;
  const std::string algorithm = s.algorithm;
  if (opt.traced) {
    in.engine = std::make_unique<mr::Engine>(in.mesh, config, [&] {
      auto a = std::make_unique<TimedAlgorithm>(mr::make_algorithm(algorithm));
      in.timed.push_back(a.get());
      return std::unique_ptr<mr::Algorithm>(std::move(a));
    });
  } else {
    in.engine = std::make_unique<mr::Engine>(
        in.mesh, config, [&] { return mr::make_algorithm(algorithm); });
  }
  mr::Engine& e = *in.engine;

  const Clock::time_point g0 = Clock::now();
  if (s.inject_steps > 0) {
    mr::TrafficSpec traffic;
    traffic.pattern = mr::TrafficPattern::UniformRandom;
    traffic.rate = s.rate;
    traffic.seed = seed;
    in.source = std::make_unique<mr::BernoulliSource>(in.mesh, traffic);
    in.pump = std::make_unique<mr::TrafficPump>(e, *in.source, s.inject_steps,
                                                kTrafficAhead);
  }
  if (s.observed && !opt.for_restore) {
    const std::unique_ptr<mr::Algorithm> probe = mr::make_algorithm(algorithm);
    in.move_oracle = std::make_unique<mr::ProfitableMoveOracle>(
        probe->minimal(), probe->max_stray());
    mr::StepObserver* oracles[] = {&in.queue_oracle, &in.link_oracle,
                                   in.move_oracle.get()};
    for (mr::StepObserver* o : oracles) {
      if (opt.traced) {
        in.wrappers.push_back(std::make_unique<TimedObserver>(*o, &in.oracles_s));
        e.add_observer(in.wrappers.back().get());
      } else {
        e.add_observer(o);
      }
    }
    if (opt.traced) {
      in.wrappers.push_back(
          std::make_unique<TimedObserver>(in.telemetry, &in.telemetry_s));
      e.add_observer(in.wrappers.back().get());
    } else {
      e.add_observer(&in.telemetry);
    }
  }
  if (opt.traced && in.pump) e.add_observer(&in.injections);
  if (opt.traced) e.set_phase_profiling(true);
  if (opt.for_restore) return;

  for (const mr::Demand& d : in.batch) e.add_packet(d.source, d.dest, d.injected_at);
  if (in.pump) {
    in.pump->prime();
    rep.generate_s += seconds_between(g0, Clock::now());
  }
  const Clock::time_point p0 = Clock::now();
  e.prepare();
  const Clock::time_point p1 = Clock::now();
  rep.prepare_s += seconds_between(p0, p1);
  rep.setup_s += seconds_between(t0, p1);
}

/// Set-up alone, timed exactly as a repetition's; for adversarial-main the
/// replay engine is fed `constructed`, the permutation a repetition built.
/// Cheap enough to repeat, which steadies the median of setup_s.
double setup_once(const Spec& s, std::uint64_t seed,
                  const mr::Workload& constructed) {
  Rep rep;
  const std::unique_ptr<Instance> in = make_instance(s, seed, rep);
  if (s.adversarial) in->batch = constructed;
  build(*in, seed, RepOptions{}, rep);
  return rep.setup_s;
}

/// Moves of one run_construction at `seed`, counted by an untimed pass
/// with a StepClock attached. The construction is deterministic for a seed,
/// so untraced repetitions need no observer to know their move count.
std::int64_t count_construction_moves(const Spec& s, std::uint64_t seed) {
  Rep unused;
  const std::unique_ptr<Instance> in = make_instance(s, seed, unused);
  StepClock clock;
  in->construction->run_construction(s.algorithm, s.k, &clock);
  return clock.moves();
}

// ---------------------------------------------------------------------------
// Driving loop and per-repetition record

struct LoopStats {
  double active_sum = 0;
  std::int64_t steps = 0;
  double traffic_s = 0;
  double capture_s = 0, serialize_s = 0;
  std::int64_t snapshot_bytes = 0;
  double backlog_sum = 0;
  std::int64_t backlog_max = 0;
};

/// One loop iteration per step: pump.advance(), step_once(), then the
/// snapshot if one is due. `snapshot_at` forces one extra snapshot at that
/// step (cross-checks). Returns when the run drains, stalls or hits its
/// step budget.
void drive(Instance& in, bool traced, Step snapshot_at, Rep& rep,
           LoopStats& ls) {
  mr::Engine& e = *in.engine;
  const Spec& s = in.spec;
  const Step budget = step_budget(s);
  std::int64_t offered_due = 0;  // traced runs start at step 0
  const double cpu0 = cpu_seconds();
  const Clock::time_point w0 = Clock::now();
  SpeedLog speed(e.thread_count() == 1);
  std::vector<std::size_t> step_block;
  for (;;) {
    if (traced) ls.active_sum += static_cast<double>(e.active_nodes().size());
    const Clock::time_point s0 = Clock::now();
    if (in.pump) {
      in.pump->advance();
      if (traced) ls.traffic_s += seconds_between(s0, Clock::now());
    }
    if (e.all_delivered() || e.stalled() || e.step() >= budget) break;
    e.step_once();
    const Step t = e.step();
    if ((s.snapshot_every > 0 && t % s.snapshot_every == 0) || t == snapshot_at) {
      const Clock::time_point c0 = Clock::now();
      mr::EngineSnapshot snap = e.snapshot();
      if (in.pump) {
        snap.set_aux("source", in.source->save_state());
        snap.set_aux("pump", in.pump->save_state());
      }
      const Clock::time_point c1 = Clock::now();
      rep.last_snapshot = mr::serialize_snapshot(snap);
      const Clock::time_point c2 = Clock::now();
      ls.capture_s += seconds_between(c0, c1);
      ls.serialize_s += seconds_between(c1, c2);
      ls.snapshot_bytes = static_cast<std::int64_t>(rep.last_snapshot.size());
    }
    rep.step_us.push_back(seconds_between(s0, Clock::now()) * 1e6);
    step_block.push_back(speed.block());
    ++ls.steps;
    if (traced && in.pump) {
      offered_due += in.pump->offered_between(t, t);
      const std::int64_t backlog = offered_due - in.injections.injected();
      ls.backlog_sum += static_cast<double>(backlog);
      ls.backlog_max = std::max(ls.backlog_max, backlog);
    }
    speed.maybe_probe();
  }
  speed.finish();
  // Probes are busy single-thread time, so they leave the CPU time as well.
  const double probes_s = seconds_between(w0, Clock::now()) - speed.wall_s();
  const double cpu = cpu_seconds() - cpu0 - probes_s;
  rep.run_s += speed.wall_s();
  rep.cpu_s += cpu;
  rep.run_ref_s += speed.ref_s();
  rep.cpu_ref_s += cpu * speed.ref_s() / speed.wall_s();
  for (std::size_t i = 0; i < rep.step_us.size(); ++i)
    rep.step_ref_us.push_back(rep.step_us[i] * speed.scale(step_block[i]));
}

/// Fills the simulated outcome of a finished run and checks the model's
/// invariants (drained, not stalled, occupancy within k).
void finish(const Instance& in, Rep& rep) {
  const mr::Engine& e = *in.engine;
  rep.moves += e.total_moves();
  rep.sim_steps = e.step();
  rep.delivered = static_cast<std::int64_t>(e.delivered_count());
  rep.packets = static_cast<std::int64_t>(e.num_packets());
  rep.fingerprint = e.fingerprint();
  rep.delivery_hash = delivery_hash(e);
  rep.max_occupancy = e.max_occupancy_seen();
  std::vector<double> latency;
  latency.reserve(e.num_packets());
  for (const mr::Packet& p : e.all_packets())
    if (p.delivered())
      latency.push_back(static_cast<double>(p.delivered_at - p.injected_at));
  rep.latency_count = latency.size();
  rep.latency_p50 = percentile(latency, 0.50);
  rep.latency_p99 = percentile(std::move(latency), 0.99);

  std::ostringstream err;
  if (e.stalled()) err << "stalled at step " << e.step() << "; ";
  if (!e.all_delivered())
    err << (e.num_packets() - e.delivered_count()) << " packets undelivered; ";
  if (in.pump && !in.pump->exhausted()) err << "traffic stream not exhausted; ";
  if (e.max_occupancy_seen() > in.spec.k)
    err << "max occupancy " << e.max_occupancy_seen() << " > k; ";
  if (in.move_oracle != nullptr &&
      in.telemetry.totals().deliveries != static_cast<std::int64_t>(e.delivered_count()))
    err << "telemetry counted " << in.telemetry.totals().deliveries
        << " deliveries, engine " << e.delivered_count() << "; ";
  rep.error += err.str();
}

void add_layer(Rep& rep, const std::string& name, double v) {
  rep.layers.emplace_back(name, v);
}

/// Per-layer values of one traced run of `in`.
void record_layers(const Instance& in, const LoopStats& ls, Rep& rep,
                   bool self_time) {
  const PolicyTimes r = in.routing();
  add_layer(rep, "routing.plan_out_s", r.plan_out_s);
  add_layer(rep, "routing.plan_in_s", r.plan_in_s);
  add_layer(rep, "routing.update_s", r.update_s);
  add_layer(rep, "routing.plan_out_calls", static_cast<double>(r.plan_out_calls));
  add_layer(rep, "routing.plan_in_calls", static_cast<double>(r.plan_in_calls));
  add_layer(rep, "routing.update_calls", static_cast<double>(r.update_calls));

  const mr::PhaseProfile& p = in.engine->phase_profile();
  const auto phase = [&](mr::StepPhase ph) {
    return p.seconds[static_cast<int>(ph)];
  };
  const double plan_out = phase(mr::StepPhase::PlanOut);
  const double plan_in = phase(mr::StepPhase::PlanIn);
  const double update = phase(mr::StepPhase::Update);
  add_layer(rep, "sim.plan_out_s", plan_out);
  add_layer(rep, "sim.plan_in_s", plan_in);
  add_layer(rep, "sim.transmit_s", phase(mr::StepPhase::Transmit));
  add_layer(rep, "sim.update_s", update);
  add_layer(rep, "sim.other_s",
            p.total_seconds - plan_out - plan_in - update -
                phase(mr::StepPhase::Transmit));
  if (self_time) {
    add_layer(rep, "sim.plan_out_self_s", plan_out - r.plan_out_s);
    add_layer(rep, "sim.plan_in_self_s", plan_in - r.plan_in_s);
    add_layer(rep, "sim.update_self_s", update - r.update_s);
  }
  const double steps = std::max<double>(1, static_cast<double>(ls.steps));
  add_layer(rep, "sim.active_nodes_mean", ls.active_sum / steps);
  add_layer(rep, "sim.moves_per_step",
            static_cast<double>(in.engine->total_moves()) / steps);
  add_layer(rep, "sim.prepare_s", rep.prepare_s);

  if (in.pump) {
    add_layer(rep, "traffic.advance_s", ls.traffic_s);
    add_layer(rep, "traffic.offered", static_cast<double>(in.pump->offered()));
    add_layer(rep, "traffic.backlog_mean", ls.backlog_sum / steps);
    add_layer(rep, "traffic.backlog_max", static_cast<double>(ls.backlog_max));
  } else {
    // A closed batch offers every packet at step 0, one per source, so all
    // of them enter at prepare() and nothing waits outside the network.
    add_layer(rep, "traffic.offered", static_cast<double>(in.engine->num_packets()));
    add_layer(rep, "traffic.backlog_mean", 0);
    add_layer(rep, "traffic.backlog_max", 0);
  }
  if (in.spec.observed) {
    add_layer(rep, "check.oracles_s", in.oracles_s);
    add_layer(rep, "telemetry.collect_s", in.telemetry_s);
  }
  if (ls.snapshot_bytes > 0) {
    add_layer(rep, "snapshot.capture_s", ls.capture_s);
    add_layer(rep, "snapshot.serialize_s", ls.serialize_s);
    add_layer(rep, "snapshot.bytes_last", static_cast<double>(ls.snapshot_bytes));
  }
  add_layer(rep, "workload.generate_s", rep.generate_s);
}

/// One repetition: set-up, then for adversarial-main the Theorem 14
/// construction, then the simulation (for adversarial-main the replay of
/// the constructed permutation) to drain. Stores the constructed
/// permutation in `*constructed_out` when given.
Rep run_once(const Spec& s, std::uint64_t seed, const RepOptions& opt,
             Step snapshot_at, mr::Workload* constructed_out) {
  Rep rep;
  const std::unique_ptr<Instance> in = make_instance(s, seed, rep);

  double construct_s = 0;
  std::size_t exchanges = 0;
  StepClock clock;
  if (s.adversarial) {
    SpeedLog speed(true);
    const double cpu0 = cpu_seconds();
    mr::MainConstruction::RunResult built = in->construction->run_construction(
        s.algorithm, s.k, opt.traced ? &clock : nullptr);
    speed.finish();
    const double cpu = cpu_seconds() - cpu0;
    construct_s = speed.wall_s();
    rep.run_s = construct_s;
    rep.cpu_s = cpu;
    rep.run_ref_s = speed.ref_s();
    rep.cpu_ref_s = cpu * speed.ref_s() / speed.wall_s();
    rep.moves = opt.traced ? clock.moves() : opt.construction_moves;
    exchanges = built.exchanges;
    if (built.undelivered == 0)
      rep.error += "construction drained before the certified bound; ";
    in->batch = std::move(built.constructed);
  }

  build(*in, seed, opt, rep);
  LoopStats ls;
  drive(*in, opt.traced, snapshot_at, rep, ls);
  finish(*in, rep);
  if (opt.traced) {
    record_layers(*in, ls, rep, /*self_time=*/in->engine->thread_count() == 1);
    if (s.adversarial) {
      add_layer(rep, "lower_bound.construct_s", construct_s);
      add_layer(rep, "lower_bound.construct_step_us_p50",
                percentile(clock.step_us(), 0.5));
      add_layer(rep, "lower_bound.exchanges", static_cast<double>(exchanges));
    }
  }
  if (constructed_out != nullptr && s.adversarial)
    *constructed_out = std::move(in->batch);
  return rep;
}

Rep run_rep(const Spec& s, std::uint64_t seed, const RepOptions& opt,
            Step snapshot_at = -1, mr::Workload* constructed_out = nullptr) {
  Rep rep;
  try {
    rep = run_once(s, seed, opt, snapshot_at, constructed_out);
  } catch (const std::exception& ex) {
    rep.error += std::string("threw: ") + ex.what() + "; ";
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Cross-checks of the traced run

struct CrossCheck {
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::string> failures;
  int runs = 0;
};

bool same_outcome(const Rep& a, const Rep& b) {
  return a.fingerprint == b.fingerprint && a.delivery_hash == b.delivery_hash &&
         a.sim_steps == b.sim_steps && a.delivered == b.delivered;
}

/// Restores `reference.last_snapshot` into a fresh engine (threads =
/// `threads`), steps it to drain and compares the outcome with the run the
/// snapshot was taken from.
void restore_check(const Spec& s, std::uint64_t seed, const Rep& reference,
                   int threads, CrossCheck& cc) {
  ++cc.runs;
  try {
    if (reference.last_snapshot.empty())
      throw std::runtime_error("the reference run took no snapshot");
    const Clock::time_point p0 = Clock::now();
    const mr::EngineSnapshot snap = mr::parse_snapshot(reference.last_snapshot);
    const double parse_s = seconds_between(p0, Clock::now());

    Instance in(s);
    RepOptions opt;
    opt.for_restore = true;
    opt.threads = threads;
    Rep unused;
    build(in, seed, opt, unused);
    const Clock::time_point r0 = Clock::now();
    if (in.pump) {
      const std::string* source_blob = snap.find_aux("source");
      const std::string* pump_blob = snap.find_aux("pump");
      if (source_blob == nullptr || pump_blob == nullptr)
        throw std::runtime_error("snapshot lacks the source/pump state");
      in.source->restore_state(*source_blob);
      in.pump->restore_state(*pump_blob);
    }
    in.engine->restore(snap);
    const double restore_s = seconds_between(r0, Clock::now());

    Rep twin;
    LoopStats ls;
    drive(in, false, -1, twin, ls);
    finish(in, twin);
    if (!twin.error.empty()) cc.failures.push_back("restored run: " + twin.error);
    if (!same_outcome(twin, reference))
      cc.failures.push_back("restored run differs from the run it was taken from");
    cc.layers.emplace_back("snapshot.parse_s", parse_s);
    cc.layers.emplace_back("snapshot.restore_s", restore_s);
  } catch (const std::exception& ex) {
    cc.failures.push_back(std::string("restore check threw: ") + ex.what());
  }
}

CrossCheck cross_checks(const Spec& s, std::uint64_t seed,
                        const std::vector<Rep>& traced) {
  CrossCheck cc;
  if (traced.empty()) return cc;
  const Rep& last = traced.back();
  if (s.threads == 1) cc.layers.emplace_back("core.parallel_speedup", 1.0);
  if (s.snapshot_every > 0) {
    // The workload snapshots in its loop: restore the last one.
    restore_check(s, seed, last, s.threads, cc);
    return cc;
  }
  // Otherwise a separate traced run takes one snapshot half way. For the
  // sharded workload that run uses the same bands on one thread, which
  // also gives the sequential self times and the parallel speedup; its
  // snapshot is restored on the workload's own thread count.
  RepOptions opt;
  opt.traced = true;
  opt.threads = 1;
  ++cc.runs;
  Rep half = run_rep(s, seed, opt, std::max<Step>(1, last.sim_steps / 2));
  if (!half.error.empty()) cc.failures.push_back("snapshot run: " + half.error);
  if (!same_outcome(half, last))
    cc.failures.push_back(s.threads > 1
                              ? "1-thread run differs from the sharded run"
                              : "snapshot run differs from the traced run");
  double snapshot_s = 0;
  for (const auto& [name, value] : half.layers) {
    const bool self = name.find("_self_s") != std::string::npos;
    const bool snap = name.rfind("snapshot.", 0) == 0;
    if ((self && s.threads > 1) || snap) cc.layers.emplace_back(name, value);
    if (name == "snapshot.capture_s" || name == "snapshot.serialize_s")
      snapshot_s += value;
  }
  if (s.threads > 1) {
    std::vector<double> wall;
    for (const Rep& r : traced) wall.push_back(r.run_s);
    cc.layers.emplace_back("core.parallel_speedup",
                           (half.run_s - snapshot_s) / percentile(wall, 0.5));
  }
  restore_check(s, seed, half, s.threads, cc);
  return cc;
}

// ---------------------------------------------------------------------------
// Output

using Fields = std::vector<std::pair<std::string, double>>;

std::string str(const std::string& v) { return '"' + mr::json::escape(v) + '"'; }
std::string num(double v) { return mr::json::number_to_string(v); }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", v);
  return buf;
}

/// Appends `item` to the comma-separated list `list`.
void append(std::string& list, const std::string& item) {
  if (!list.empty()) list += ", ";
  list += item;
}

/// `"key": value` pairs of `fields`, comma-separated.
std::string members(const Fields& fields) {
  std::string out;
  for (const auto& [name, value] : fields) append(out, str(name) + ": " + num(value));
  return out;
}

std::string rep_json(const Rep& r) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  const Fields fields = {
      {"setup_s", r.setup_s},
      {"generate_s", r.generate_s},
      {"prepare_s", r.prepare_s},
      {"run_s", r.run_s},
      {"cpu_s", r.cpu_s},
      {"run_ref_s", r.run_ref_s},
      {"cpu_ref_s", r.cpu_ref_s},
      {"moves", d(r.moves)},
      {"sim_steps", d(r.sim_steps)},
      {"delivered", d(r.delivered)},
      {"packets", d(r.packets)},
      {"max_occupancy", d(r.max_occupancy)},
      {"latency_p50", r.latency_p50},
      {"latency_p99", r.latency_p99},
      {"latency_count", d(r.latency_count)},
      {"steps_timed", d(r.step_us.size())},
      {"step_us_p50", percentile(r.step_us, 0.50)},
      {"step_us_p99", percentile(r.step_us, 0.99)},
      {"step_ref_us_p50", percentile(r.step_ref_us, 0.50)},
      {"step_ref_us_p99", percentile(r.step_ref_us, 0.99)},
  };
  std::string setup_only, setup_only_ref;
  for (const double v : r.setup_only_s) append(setup_only, num(v));
  for (const double v : r.setup_only_ref_s) append(setup_only_ref, num(v));
  std::ostringstream o;
  o << "{" << members(fields) << ", \"fingerprint\": " << hex(r.fingerprint)
    << ", \"delivery_hash\": " << hex(r.delivery_hash)
    << ", \"error\": " << str(r.error) << ", \"setup_only_s\": [" << setup_only
    << "], \"setup_only_ref_s\": [" << setup_only_ref << "], \"layers\": {"
    << members(r.layers) << "}}";
  return o.str();
}

std::string reps_json(const std::vector<Rep>& reps) {
  std::string out;
  for (const Rep& r : reps) append(out, rep_json(r));
  return out;
}

// ---------------------------------------------------------------------------
// Repetitions

/// Repeats the simulation until `seconds` have passed and at least
/// `min_reps` ran. Untraced repetitions are each followed by
/// kSetupSamplesPerRep set-up-only samples.
std::vector<Rep> repeat(const Spec& s, std::uint64_t seed, const RepOptions& opt,
                        double seconds, int min_reps) {
  std::vector<Rep> reps;
  mr::Workload constructed;  // adversarial-main: the replayed permutation
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(reps.size()) < min_reps ||
         seconds_between(start, Clock::now()) < seconds) {
    reps.push_back(run_rep(s, seed, opt, -1, &constructed));
    if (!opt.traced) {
      // Set-up is sequential on every workload, so it is always probed.
      Rep& r = reps.back();
      SpeedLog speed(true);
      for (int i = 0; i < kSetupSamplesPerRep; ++i)
        r.setup_only_s.push_back(setup_once(s, seed, constructed));
      speed.finish();
      for (const double v : r.setup_only_s)
        r.setup_only_ref_s.push_back(v * speed.scale(0));
    }
    // Only the traced run's newest snapshot is needed (by the restore
    // cross-check); free the others now so they do not inflate peak RSS.
    if (!opt.traced) std::string().swap(reps.back().last_snapshot);
    if (reps.size() > 1) std::string().swap(reps[reps.size() - 2].last_snapshot);
  }
  return reps;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_sim --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") seconds = std::atof(value.c_str());
    else if (key == "--trace") trace = value == "1";
    else return usage();
  }
  if (argc % 2 != 1 || !(seconds > 0)) return usage();
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (workload == s.name) spec = &s;
  if (spec == nullptr) return usage();

  RepOptions untraced_opt;
  if (spec->adversarial)
    untraced_opt.construction_moves = count_construction_moves(*spec, seed);
  RepOptions traced_opt = untraced_opt;
  traced_opt.traced = true;

  std::vector<Rep> untraced, traced;
  CrossCheck cc;
  if (trace) {
    untraced = repeat(*spec, seed, untraced_opt, seconds / 2, 2);
    traced = repeat(*spec, seed, traced_opt, seconds / 2, 2);
    cc = cross_checks(*spec, seed, traced);
  } else {
    untraced = repeat(*spec, seed, untraced_opt, seconds, 3);
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const Fields config = {
      {"n", spec->n},
      {"k", spec->k},
      {"shards", spec->shards},
      {"threads", spec->threads},
      {"rate", spec->rate},
      {"inject_steps", static_cast<double>(spec->inject_steps)},
      {"snapshot_every", static_cast<double>(spec->snapshot_every)},
  };
  std::string failures;
  for (const std::string& f : cc.failures) append(failures, str(f));
  std::ostringstream o;
  o << "{\"workload\": " << str(spec->name) << ", \"seed\": " << seed
    << ", \"trace\": " << (trace ? 1 : 0)
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"build_type\": " << str(PERFBENCH_BUILD_TYPE)
    << ", \"compiler\": " << str(std::string("g++ ") + __VERSION__)
    << ", \"config\": {\"algorithm\": " << str(spec->algorithm) << ", "
    << members(config) << "}, \"peak_rss_mb\": "
    << num(static_cast<double>(usage_now.ru_maxrss) / 1024.0)
    << ", \"untraced\": ["
    << reps_json(untraced) << "], \"traced\": [" << reps_json(traced)
    << "], \"crosscheck\": {\"runs\": " << cc.runs << ", \"layers\": {"
    << members(cc.layers) << "}, \"failures\": [" << failures << "]}}\n";
  const std::string out = o.str();
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench_sim: %s\n", ex.what());
    return 1;
  }
}
