#include "check/fuzz.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "check/oracles.hpp"
#include "check/reference_engine.hpp"
#include "core/parse.hpp"
#include "core/rng.hpp"
#include "routing/registry.hpp"
#include "topo/registry.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"
#include "topo/mesh.hpp"
#include "traffic/burst.hpp"
#include "traffic/source.hpp"
#include "workload/lk.hpp"
#include "workload/patterns.hpp"

namespace mr {

namespace {

/// Stall limit for fuzz runs: small, so deadlocked configurations (a
/// legitimate outcome for some algorithm/k combinations) finish quickly.
/// Both engines get the same limit; stalling identically is not a failure.
constexpr Step kFuzzStallLimit = 64;

bool has_traffic(const FuzzCase& c) {
  return c.traffic != "none" && c.tsteps > 0;
}

/// Parses all of `text` as one number of type T: integers through
/// parse_decimal, floating point through strtod (rejecting empty or
/// trailing text and ERANGE). Leaves *out untouched on failure.
template <typename T>
bool parse_number(const std::string& text, T* out) {
  if constexpr (std::is_integral_v<T>) {
    return parse_decimal(text, out);
  } else {
    const char* begin = text.c_str();
    char* end = nullptr;
    errno = 0;
    const T v = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || errno == ERANGE) return false;
    *out = v;
    return true;
  }
}

/// The network a case routes on: the named registry topology ("" = mesh).
std::unique_ptr<Topology> fuzz_topology(const FuzzCase& c) {
  return make_topology(c.topo.empty() ? "mesh" : c.topo, c.n, c.n);
}

/// Expands the case's traffic stream into the explicit demand list both
/// engines receive. Deterministic in (traffic, rate, tseed, tsteps, n,
/// burst) — bursty streams go through the same make_traffic_source
/// factory the harness uses, so a burst= repro line replays bit for bit.
Workload traffic_demands(const FuzzCase& c) {
  if (!has_traffic(c)) return {};
  const std::unique_ptr<Topology> topo = fuzz_topology(c);
  TrafficSpec spec;
  MR_REQUIRE_MSG(parse_traffic_pattern(c.traffic, &spec.pattern),
                 "unknown traffic pattern '" << c.traffic << "'");
  spec.rate = c.rate;
  spec.seed = c.tseed;
  const std::unique_ptr<TrafficSource> source =
      make_traffic_source(*topo, spec, c.burst);
  return materialize_traffic(*source, 1, c.tsteps);
}

/// Expands the case's lk= workload (empty when the key is absent).
/// Deterministic in (lk, n, topo) — the spec string carries its own seed.
Workload lk_demands(const FuzzCase& c) {
  if (c.lk.empty()) return {};
  LkSpec spec;
  std::string err;
  MR_REQUIRE_MSG(parse_lk_spec(c.lk, &spec, &err), err);
  return make_lk_workload(*fuzz_topology(c), spec);
}

}  // namespace

bool supports_torus(const std::string& algorithm) {
  for (const AlgorithmInfo& info : algorithm_catalog()) {
    if (info.name != algorithm) continue;
    // The stray rectangle and the farthest-first distance order are not
    // defined across wrap links; everything else runs on the torus.
    return info.dx_minimal || info.name == "bounded-dimension-order" ||
           info.name == "emps";
  }
  return false;
}

std::string format_fuzz_case(const FuzzCase& c) {
  std::ostringstream os;
  os << "algo=" << c.algorithm << " n=" << c.n << " k=" << c.k
     << " budget=" << c.budget;
  if (!c.topo.empty()) os << " topo=" << c.topo;
  if (c.ckpt >= 0) os << " ckpt=" << c.ckpt;
  if (!c.lk.empty()) os << " lk=" << c.lk;
  if (has_traffic(c)) {
    os << " traffic=" << c.traffic << " rate=" << c.rate
       << " tseed=" << c.tseed << " tsteps=" << c.tsteps;
    if (!c.burst.stationary()) os << " burst=" << format_burst_spec(c.burst);
  }
  if (!c.faults.empty()) os << " fault=" << format_fault_schedule(c.faults);
  if (c.shards != 1) os << " shards=" << c.shards;
  if (c.threads != 1) os << " threads=" << c.threads;
  os << " demands=";
  for (std::size_t i = 0; i < c.demands.size(); ++i) {
    const Demand& d = c.demands[i];
    if (i > 0) os << ',';
    os << d.source << '-' << d.dest;
    if (d.injected_at != 0) os << '@' << d.injected_at;
  }
  return os.str();
}

bool parse_fuzz_case(const std::string& spec, FuzzCase* out,
                     std::string* error) {
  FuzzCase c;
  c.demands.clear();
  bool saw_algo = false, saw_demands = false, legacy_torus = false;
  std::istringstream is(spec);
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      if (error) *error = "expected key=value, got '" + token + "'";
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool number_ok = true;
    if (key == "algo") {
      c.algorithm = value;
      saw_algo = true;
    } else if (key == "n") {
      number_ok = parse_number(value, &c.n);
    } else if (key == "torus") {
      // Legacy shim from pre-registry spec lines; normalised into topo.
      legacy_torus = value == "1" || value == "true";
    } else if (key == "topo") {
      c.topo = value;
    } else if (key == "k") {
      number_ok = parse_number(value, &c.k);
    } else if (key == "budget") {
      number_ok = parse_number(value, &c.budget);
    } else if (key == "ckpt") {
      number_ok = parse_number(value, &c.ckpt);
    } else if (key == "lk") {
      LkSpec lk;
      std::string lerr;
      if (!parse_lk_spec(value, &lk, &lerr)) {
        if (error) *error = "malformed lk spec: " + lerr;
        return false;
      }
      c.lk = value;
    } else if (key == "traffic") {
      c.traffic = value;
    } else if (key == "rate") {
      number_ok = parse_number(value, &c.rate);
    } else if (key == "tseed") {
      number_ok = parse_number(value, &c.tseed);
    } else if (key == "tsteps") {
      number_ok = parse_number(value, &c.tsteps);
    } else if (key == "burst") {
      std::string berr;
      if (!parse_burst_spec(value, &c.burst, &berr)) {
        if (error) *error = "malformed burst spec: " + berr;
        return false;
      }
    } else if (key == "fault") {
      std::string ferr;
      if (!parse_fault_schedule(value, &c.faults, &ferr)) {
        if (error) *error = "malformed fault schedule: " + ferr;
        return false;
      }
    } else if (key == "shards") {
      number_ok = parse_number(value, &c.shards);
    } else if (key == "threads") {
      number_ok = parse_number(value, &c.threads);
    } else if (key == "demands") {
      saw_demands = true;
      std::istringstream ds(value);
      std::string item;
      while (std::getline(ds, item, ',')) {
        if (item.empty()) continue;
        // source-dest[@step]
        const std::size_t dash = item.find('-');
        const std::size_t at = item.find('@');
        const std::size_t dest_end = std::min(at, item.size());
        Demand d;
        if (dash == std::string::npos || dash > dest_end ||
            !parse_number(item.substr(0, dash), &d.source) ||
            !parse_number(item.substr(dash + 1, dest_end - dash - 1),
                          &d.dest) ||
            (at != std::string::npos &&
             !parse_number(item.substr(at + 1), &d.injected_at))) {
          if (error) *error = "malformed demand '" + item + "'";
          return false;
        }
        c.demands.push_back(d);
      }
    } else {
      if (error) *error = "unknown key '" + key + "'";
      return false;
    }
    if (!number_ok) {
      if (error) *error = "malformed value for '" + key + "'";
      return false;
    }
  }
  if (!saw_algo || !saw_demands) {
    if (error) *error = "spec needs at least algo= and demands=";
    return false;
  }
  if (legacy_torus && c.topo.empty()) c.topo = "torus";
  if (c.n < 2 || c.k < 1 || c.budget < 1) {
    if (error) *error = "n must be >= 2, k >= 1, budget >= 1";
    return false;
  }
  // Node ids of the n x n grid must fit NodeId.
  if (std::int64_t{c.n} * c.n > std::numeric_limits<NodeId>::max()) {
    if (error) *error = "n=" + std::to_string(c.n) + " is too large";
    return false;
  }
  if (c.shards < 1 || c.threads < 1) {
    if (error) *error = "shards and threads must be >= 1";
    return false;
  }
  if (!c.topo.empty() && !known_topology(c.topo)) {
    if (error) *error = "unknown topology '" + c.topo + "'";
    return false;
  }
  if (!c.faults.empty()) {
    const std::string ferr =
        validate_fault_schedule(c.faults, *fuzz_topology(c));
    if (!ferr.empty()) {
      if (error) *error = ferr;
      return false;
    }
  }
  if (c.traffic != "none") {
    TrafficPattern pattern;
    if (!parse_traffic_pattern(c.traffic, &pattern)) {
      if (error) *error = "unknown traffic pattern '" + c.traffic + "'";
      return false;
    }
    if (!(c.rate >= 0.0 && c.rate <= 1.0) || c.tsteps < 0) {
      if (error) *error = "traffic needs rate in [0,1] and tsteps >= 0";
      return false;
    }
  }
  const NodeId nodes = c.n * c.n;  // fits: checked above
  for (const Demand& d : c.demands) {
    if (d.source < 0 || d.source >= nodes || d.dest < 0 || d.dest >= nodes ||
        d.injected_at < 0) {
      if (error) *error = "demand out of range for n=" + std::to_string(c.n);
      return false;
    }
  }
  *out = std::move(c);
  return true;
}

std::string run_fuzz_case(const FuzzCase& c) {
  std::ostringstream err;
  try {
    const std::unique_ptr<Topology> topo = fuzz_topology(c);
    auto algo_opt = make_algorithm(c.algorithm);
    auto algo_ref = make_algorithm(c.algorithm);

    Engine::Config config;
    config.queue_capacity = c.k;
    config.stall_limit = kFuzzStallLimit;
    config.shards = c.shards;
    config.threads = c.threads;
    Engine opt(*topo, config, [&] { return make_algorithm(c.algorithm); });
    ReferenceEngine ref(*topo, c.k, kFuzzStallLimit, *algo_ref);

    // Same fault schedule in both engines: the reroute-or-stall decisions
    // (dropped moves, deferred injections, availability-masked planning)
    // must be bit-identical, and both land in the step digest the hashers
    // compare below.
    if (!c.faults.empty()) {
      opt.set_fault_schedule(c.faults);
      ref.set_fault_schedule(c.faults);
    }

    for (const Demand& d : c.demands) {
      opt.add_packet(d.source, d.dest, d.injected_at);
      ref.add_packet(d.source, d.dest, d.injected_at);
    }
    for (const Demand& d : lk_demands(c)) {
      opt.add_packet(d.source, d.dest, d.injected_at);
      ref.add_packet(d.source, d.dest, d.injected_at);
    }
    for (const Demand& d : traffic_demands(c)) {
      opt.add_packet(d.source, d.dest, d.injected_at);
      ref.add_packet(d.source, d.dest, d.injected_at);
    }

    // Oracles watch the optimized engine; the queue-bound oracle also
    // watches the reference (its occupancy accessor is an independent
    // scan there, so the cross-check is trivially true but the bound
    // check is not).
    QueueBoundOracle queue_bound;
    LinkCapacityOracle link_capacity;
    ProfitableMoveOracle profitable(algo_opt->minimal(),
                                    algo_opt->max_stray());
    ExchangeConsistencyOracle exchange;
    TraceRecorder trace;
    opt.add_observer(&queue_bound);
    opt.add_observer(&link_capacity);
    opt.add_observer(&profitable);
    opt.add_observer(&exchange);
    opt.add_observer(&trace);
    QueueBoundOracle ref_queue_bound;
    ref.add_observer(&ref_queue_bound);

    DigestHasher opt_hash, ref_hash;
    opt.add_observer(&opt_hash);
    ref.add_observer(&ref_hash);

    opt.prepare();
    ref.prepare();
    if (opt.fingerprint() != ref.fingerprint()) {
      err << "fingerprint divergence after prepare()";
      return err.str();
    }
    if (opt_hash.hash() != ref_hash.hash()) {
      err << "digest divergence after prepare()";
      return err.str();
    }

    for (Step t = 0; t < c.budget; ++t) {
      // Mid-run snapshot round trip: serialize → parse → restore must be
      // the identity on the optimized engine, or the lock-step comparison
      // below diverges immediately.
      if (c.ckpt >= 0 && opt.step() == c.ckpt)
        opt.restore(parse_snapshot(serialize_snapshot(opt.snapshot())));
      const bool more_opt = opt.step_once();
      const bool more_ref = ref.step_once();
      if (more_opt != more_ref) {
        err << "drain divergence at step " << opt.step() << ": optimized="
            << more_opt << " reference=" << more_ref;
        return err.str();
      }
      if (!more_opt) break;
      if (opt.fingerprint() != ref.fingerprint()) {
        err << "fingerprint divergence at step " << opt.step();
        return err.str();
      }
      if (opt_hash.hash() != ref_hash.hash()) {
        err << "digest divergence at step " << opt.step();
        return err.str();
      }
      if (opt.stalled() != ref.stalled()) {
        err << "stall divergence at step " << opt.step();
        return err.str();
      }
      if (opt.stalled() || opt.all_delivered()) break;
    }

    if (opt.delivered_count() != ref.delivered_count() ||
        opt.total_moves() != ref.total_moves() ||
        opt.max_occupancy_seen() != ref.max_occupancy_seen() ||
        opt.exchange_count() != ref.exchange_count() ||
        opt.step() != ref.step()) {
      err << "final-counter divergence: delivered " << opt.delivered_count()
          << "/" << ref.delivered_count() << ", moves " << opt.total_moves()
          << "/" << ref.total_moves() << ", max-occupancy "
          << opt.max_occupancy_seen() << "/" << ref.max_occupancy_seen()
          << ", steps " << opt.step() << "/" << ref.step();
      return err.str();
    }

    // Offline pass: the recorded trace must replay cleanly too.
    const std::string trace_error =
        run_trace_oracles(trace.events(), *topo, opt.all_packets(), c.k,
                          algo_opt->queue_layout(),
                          c.faults.empty() ? nullptr : &c.faults);
    if (!trace_error.empty()) {
      err << "trace replay: " << trace_error;
      return err.str();
    }
  } catch (const InvariantViolation& e) {
    return std::string("invariant violation: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
  return {};
}

FuzzCase shrink_fuzz_case(const FuzzCase& c, const FuzzRunner& failing) {
  const FuzzRunner runner =
      failing ? failing : FuzzRunner([](const FuzzCase& x) {
        return run_fuzz_case(x);
      });
  if (runner(c).empty()) return c;
  FuzzCase cur = c;
  // Flatten an lk= workload into explicit demands (the expansion is
  // deterministic — the spec string carries its own seed — so the
  // flattened case fails identically); ddmin then shrinks the whole list.
  if (!cur.lk.empty()) {
    FuzzCase flat = cur;
    const Workload expansion = lk_demands(flat);
    flat.demands.insert(flat.demands.end(), expansion.begin(),
                        expansion.end());
    flat.lk.clear();
    if (!runner(flat).empty()) cur = std::move(flat);
  }
  // Flatten an active traffic stream into explicit demands (the expansion
  // is deterministic — bursty streams included, via make_traffic_source —
  // so the flattened case fails identically); ddmin then shrinks the
  // whole list.
  if (has_traffic(cur)) {
    FuzzCase flat = cur;
    const Workload stream = traffic_demands(flat);
    flat.demands.insert(flat.demands.end(), stream.begin(), stream.end());
    flat.traffic = "none";
    flat.tsteps = 0;
    flat.burst = BurstSpec{};
    if (!runner(flat).empty()) cur = std::move(flat);
  }
  // ddmin over the demand list: drop chunks while the case still fails,
  // halving the chunk size when no chunk can be dropped.
  std::size_t attempts = 0;
  constexpr std::size_t kMaxAttempts = 2000;
  std::size_t chunk = std::max<std::size_t>(1, cur.demands.size() / 2);
  while (cur.demands.size() > 1 && attempts < kMaxAttempts) {
    bool reduced = false;
    for (std::size_t start = 0;
         start < cur.demands.size() && attempts < kMaxAttempts;
         start += chunk) {
      FuzzCase candidate = cur;
      const auto begin =
          candidate.demands.begin() + static_cast<std::ptrdiff_t>(start);
      const auto end =
          candidate.demands.begin() +
          static_cast<std::ptrdiff_t>(std::min(start + chunk,
                                               candidate.demands.size()));
      candidate.demands.erase(begin, end);
      ++attempts;
      if (candidate.demands.empty()) continue;
      if (!runner(candidate).empty()) {
        cur = std::move(candidate);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
    } else {
      chunk = std::min(chunk, std::max<std::size_t>(1, cur.demands.size() / 2));
    }
  }
  // Shrink the fault schedule: try dropping it wholesale (most failures
  // are not fault-dependent), then a drop-one-event pass iterated to a
  // fixed point — schedules are a handful of events, so full ddmin
  // machinery buys nothing here.
  if (!cur.faults.empty()) {
    FuzzCase bare = cur;
    bare.faults.events.clear();
    ++attempts;
    if (!runner(bare).empty()) {
      cur = std::move(bare);
    } else {
      bool dropped = true;
      while (dropped && cur.faults.events.size() > 1 &&
             attempts < kMaxAttempts) {
        dropped = false;
        for (std::size_t i = 0; i < cur.faults.events.size(); ++i) {
          FuzzCase candidate = cur;
          candidate.faults.events.erase(
              candidate.faults.events.begin() +
              static_cast<std::ptrdiff_t>(i));
          ++attempts;
          if (!runner(candidate).empty()) {
            cur = std::move(candidate);
            dropped = true;
            break;
          }
          if (attempts >= kMaxAttempts) break;
        }
      }
    }
  }
  return cur;
}

namespace {

FuzzCase sample_case(Rng& rng) {
  FuzzCase c;
  const std::vector<std::string> names = algorithm_names();
  c.algorithm = names[rng.next_below(names.size())];
  c.n = static_cast<std::int32_t>(4 + rng.next_below(7));  // 4..10
  if (supports_torus(c.algorithm) && rng.next_below(3) == 0) c.topo = "torus";
  // A quarter of the non-torus cases route on a concentrated mesh: same
  // router grid, but the traffic layer draws per terminal, so source==dest
  // demands and shared-router injection contention get differential
  // coverage too.
  if (c.topo.empty() && rng.next_below(4) == 0)
    c.topo = rng.next_below(2) == 0 ? "cmesh-2" : "cmesh-4";
  constexpr int kChoices[] = {1, 2, 4, 8};
  c.k = kChoices[rng.next_below(4)];
  c.budget = 4096;
  // A quarter of the cases exercise the snapshot round trip mid-run; early
  // steps are where queues fill and the waiting/due machinery is busiest.
  if (rng.next_below(4) == 0)
    c.ckpt = static_cast<Step>(1 + rng.next_below(16));
  // A third of the cases run the optimized engine sharded, differentially
  // checking the boundary-handoff protocol against the sequential
  // reference (shards beyond the mesh height clamp, so any draw is valid).
  if (rng.next_below(3) == 0) {
    constexpr int kShardChoices[] = {2, 3, 4, 8};
    c.shards = kShardChoices[rng.next_below(4)];
    constexpr int kThreadChoices[] = {1, 2, 4};
    c.threads = kThreadChoices[rng.next_below(3)];
  }
  // A quarter of the cases install a timed fault schedule: one or two
  // windows over interior elements (all four link directions exist there
  // on every registry topology), mostly transient so the run can drain
  // after the window, with an occasional permanent fault — a stall is a
  // legitimate outcome both engines must reach identically.
  if (rng.next_below(4) == 0) {
    const auto interior = [&] {
      return static_cast<std::int32_t>(1 + rng.next_below(
          static_cast<std::uint64_t>(c.n - 2)));
    };
    const int events = 1 + static_cast<int>(rng.next_below(2));
    for (int i = 0; i < events; ++i) {
      FaultEvent ev;
      ev.node = interior() * c.n + interior();
      if (rng.next_below(2) == 0) {
        ev.kind = FaultEvent::Kind::Node;
      } else {
        ev.kind = FaultEvent::Kind::Link;
        constexpr Dir kDirs[] = {Dir::North, Dir::East, Dir::South,
                                 Dir::West};
        ev.dir = kDirs[rng.next_below(4)];
      }
      ev.down_at = static_cast<Step>(1 + rng.next_below(8));
      ev.up_at = rng.next_below(8) == 0
                     ? kStepNever
                     : ev.down_at + static_cast<Step>(4 + rng.next_below(29));
      c.faults.events.push_back(ev);
    }
    // Concentrated topologies may reject a direction at a router the plain
    // interior heuristic assumed; a sampled schedule is best-effort, so an
    // invalid draw simply degrades to a fault-free case.
    if (!validate_fault_schedule(c.faults, *fuzz_topology(c)).empty())
      c.faults.events.clear();
  }

  const Mesh mesh = Mesh::square(c.n, c.topo == "torus");
  const std::uint64_t wseed = rng.next_u64() | 1;
  // A quarter of the cases carry an open-loop traffic stream instead of a
  // batch workload: pattern, rate and window sampled, stream expanded at
  // run time from tseed (so the spec line stays self-contained).
  if (rng.next_below(4) == 0) {
    const std::vector<TrafficPattern>& patterns = all_traffic_patterns();
    c.traffic =
        traffic_pattern_name(patterns[rng.next_below(patterns.size())]);
    constexpr double kRates[] = {0.05, 0.1, 0.2, 0.4};
    c.rate = kRates[rng.next_below(4)];
    c.tseed = wseed;
    c.tsteps = static_cast<Step>(8 + rng.next_below(33));  // 8..40
    // A third of the traffic cases modulate the stream with a burst
    // process (traffic/burst.hpp), so the time-varying sources get
    // differential coverage through the same factory the harness uses.
    if (rng.next_below(3) == 0) {
      switch (rng.next_below(3)) {
        case 0:
          c.burst.kind = "onoff";
          c.burst.on_steps = static_cast<Step>(2 + rng.next_below(7));
          c.burst.off_steps = static_cast<Step>(2 + rng.next_below(7));
          break;
        case 1: {
          c.burst.kind = "mmpp";
          constexpr double kP[] = {0.1, 0.2, 0.5};
          c.burst.p01 = kP[rng.next_below(3)];
          c.burst.p10 = kP[rng.next_below(3)];
          break;
        }
        default:
          c.burst.kind = "drift";
          c.burst.drift_period = static_cast<Step>(4 + rng.next_below(13));
          break;
      }
    }
    return c;
  }
  // A fifth of the batch cases draw an (l,k) workload through the lk=
  // spec key instead of an explicit pattern, so the spec-line expansion
  // path (and the clustered/worst-case degree profiles) fuzz too.
  if (rng.next_below(5) == 0) {
    LkSpec lk;
    constexpr const char* kVariants[] = {"uniform", "clustered",
                                         "worst-case"};
    lk.variant = kVariants[rng.next_below(3)];
    lk.l = static_cast<int>(1 + rng.next_below(3));
    lk.k = static_cast<int>(1 + rng.next_below(3));
    lk.seed = wseed;
    c.lk = format_lk_spec(lk);
    return c;
  }
  switch (rng.next_below(9)) {
    case 0: c.demands = random_permutation(mesh, wseed); break;
    case 1:
      c.demands = random_partial_permutation(mesh, 0.5, wseed);
      break;
    case 2: c.demands = transpose(mesh); break;
    case 3: c.demands = random_hh(mesh, 2, wseed); break;
    case 4: c.demands = random_hh(mesh, 3, wseed); break;
    case 5:
      c.demands = hotspot(mesh, mesh.num_nodes() - 1,
                          std::min<std::int32_t>(2 * c.n,
                                                 mesh.num_nodes() - 1));
      break;
    case 6: c.demands = corner_flood(mesh, (c.n + 1) / 2, (c.n + 1) / 2); break;
    case 7:
      c.demands = diagonal_shift(
          mesh, static_cast<std::int32_t>(1 + rng.next_below(
                    static_cast<std::uint64_t>(c.n - 1))));
      break;
    default:
      c.demands = row_to_column(
          mesh, static_cast<std::int32_t>(rng.next_below(
                    static_cast<std::uint64_t>(c.n))),
          static_cast<std::int32_t>(rng.next_below(
              static_cast<std::uint64_t>(c.n))));
      break;
  }
  // A third of the cases stagger injections so the waiting-injection and
  // dynamic-arrival paths diverge if either engine mishandles them.
  if (rng.next_below(3) == 0) {
    for (std::size_t i = 0; i < c.demands.size(); ++i)
      if (i % 4 == 0)
        c.demands[i].injected_at = static_cast<Step>(rng.next_below(6));
  }
  // A quarter get source==dest packets: delivered at injection, visible
  // only through the injected-deliveries digest path.
  if (rng.next_below(4) == 0) {
    for (int extra = 0; extra < 2; ++extra) {
      const NodeId u = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(mesh.num_nodes())));
      c.demands.push_back(Demand{u, u, static_cast<Step>(rng.next_below(3))});
    }
  }
  return c;
}

}  // namespace

FuzzReport run_fuzz(std::size_t num_cases, std::uint64_t seed,
                    std::ostream& log) {
  FuzzReport report;
  Rng rng(seed);
  for (std::size_t i = 0; i < num_cases; ++i) {
    const FuzzCase c = sample_case(rng);
    const std::string error = run_fuzz_case(c);
    ++report.cases_run;
    log << "fuzz[" << i << "] algo=" << c.algorithm << " n=" << c.n << " "
        << (!c.topo.empty() ? c.topo : "mesh") << " k=" << c.k
        << " demands=" << c.demands.size();
    if (c.ckpt >= 0) log << " ckpt=" << c.ckpt;
    if (!c.lk.empty()) log << " lk=" << c.lk;
    if (c.traffic != "none")
      log << " traffic=" << c.traffic << " rate=" << c.rate
          << " tsteps=" << c.tsteps;
    if (!c.burst.stationary()) log << " burst=" << format_burst_spec(c.burst);
    if (!c.faults.empty())
      log << " fault=" << format_fault_schedule(c.faults);
    if (c.shards != 1)
      log << " shards=" << c.shards << " threads=" << c.threads;
    if (error.empty()) {
      log << " ok\n";
      continue;
    }
    log << " FAIL: " << error << "\n";
    ++report.failures;
    report.first_error = error;
    const FuzzCase shrunk = shrink_fuzz_case(c);
    report.first_repro = format_fuzz_case(shrunk);
    log << "shrunk to " << shrunk.demands.size() << " demand(s): "
        << report.first_repro << "\n";
    break;
  }
  return report;
}

}  // namespace mr
