#include "traffic/burst.hpp"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "core/assert.hpp"
#include "core/parse.hpp"

namespace mr {
namespace {

[[noreturn]] void bad_blob(const char* what) {
  throw SnapshotError(SnapshotError::Kind::Format,
                      std::string("traffic source state blob: ") + what);
}

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Splits "kind:a:b" into fields on ':'.
std::vector<std::string> split_fields(const std::string& text) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = text.find(':', start);
    if (colon == std::string::npos) {
      fields.push_back(text.substr(start));
      return fields;
    }
    fields.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
}

bool parse_prob_field(const std::string& field, double* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_burst_spec(const std::string& text, BurstSpec* out,
                      std::string* error) {
  BurstSpec spec;
  if (text.empty() || text == "none") {
    spec.kind = "none";
    *out = spec;
    return true;
  }
  const std::vector<std::string> fields = split_fields(text);
  spec.kind = fields[0];
  if (spec.kind == "onoff") {
    if (fields.size() != 3 || !parse_decimal(fields[1], &spec.on_steps) ||
        !parse_decimal(fields[2], &spec.off_steps))
      return fail(error, "burst: expected onoff:<on>:<off>");
    if (spec.on_steps < 1 || spec.off_steps < 1)
      return fail(error, "burst: onoff periods must be >= 1");
  } else if (spec.kind == "mmpp") {
    if (fields.size() != 3 || !parse_prob_field(fields[1], &spec.p01) ||
        !parse_prob_field(fields[2], &spec.p10))
      return fail(error, "burst: expected mmpp:<p01>:<p10>");
    if (!(spec.p01 > 0.0 && spec.p01 <= 1.0) ||
        !(spec.p10 > 0.0 && spec.p10 <= 1.0))
      return fail(error, "burst: mmpp probabilities must be in (0, 1]");
  } else if (spec.kind == "drift") {
    if (fields.size() != 2 || !parse_decimal(fields[1], &spec.drift_period))
      return fail(error, "burst: expected drift:<period>");
    if (spec.drift_period < 1)
      return fail(error, "burst: drift period must be >= 1");
  } else {
    return fail(error, "burst: unknown kind '" + spec.kind + "'");
  }
  *out = spec;
  return true;
}

std::string format_burst_spec(const BurstSpec& spec) {
  if (spec.stationary()) return "none";
  char buf[96];
  if (spec.kind == "onoff") {
    std::snprintf(buf, sizeof buf, "onoff:%" PRId64 ":%" PRId64,
                  static_cast<std::int64_t>(spec.on_steps),
                  static_cast<std::int64_t>(spec.off_steps));
  } else if (spec.kind == "mmpp") {
    std::snprintf(buf, sizeof buf, "mmpp:%g:%g", spec.p01, spec.p10);
  } else {
    MR_REQUIRE_MSG(spec.kind == "drift",
                   "unknown burst kind '" << spec.kind << "'");
    std::snprintf(buf, sizeof buf, "drift:%" PRId64,
                  static_cast<std::int64_t>(spec.drift_period));
  }
  return buf;
}

double long_run_rate(const BurstSpec& spec, double rate) {
  if (spec.kind == "onoff") {
    return rate * static_cast<double>(spec.on_steps) /
           static_cast<double>(spec.on_steps + spec.off_steps);
  }
  if (spec.kind == "mmpp") return rate * spec.p01 / (spec.p01 + spec.p10);
  return rate;  // none and drift leave the injection process stationary
}

// --- OnOffSource ---------------------------------------------------------

OnOffSource::OnOffSource(const Topology& topo, const TrafficSpec& spec,
                         const BurstSpec& burst)
    : topo_(topo),
      spec_(spec),
      on_steps_(burst.on_steps),
      off_steps_(burst.off_steps),
      rng_(spec.seed) {
  MR_REQUIRE_MSG(spec.rate >= 0.0 && spec.rate <= 1.0,
                 "injection rate must be in [0, 1], got " << spec.rate);
  MR_REQUIRE_MSG(on_steps_ >= 1 && off_steps_ >= 1,
                 "on-off periods must be >= 1, got on=" << on_steps_
                     << " off=" << off_steps_);
}

void OnOffSource::emit(Step step, std::vector<Demand>& out) {
  MR_REQUIRE_MSG(step > last_step_,
                 "emit steps must be strictly increasing: " << step
                     << " after " << last_step_);
  last_step_ = step;
  // Step 1 opens the first ON window; OFF steps consume no randomness so
  // the stream stays deterministic across emit gaps.
  if ((step - 1) % (on_steps_ + off_steps_) >= on_steps_) return;
  const NodeId n = topo_.num_terminals();
  for (NodeId t = 0; t < n; ++t) {
    if (rng_.next_double() >= spec_.rate) continue;
    const NodeId dest = traffic_destination(topo_, spec_, t, rng_);
    if (dest == kInvalidNode) continue;  // pattern: this terminal never sends
    out.push_back(Demand{topo_.terminal_router(t), topo_.terminal_router(dest),
                         step});
    ++offered_;
  }
}

std::string OnOffSource::save_state() const {
  const std::array<std::uint64_t, 4> s = rng_.state();
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "onoff/1 %016" PRIx64 " %016" PRIx64 " %016" PRIx64
                " %016" PRIx64 " %" PRId64 " %" PRId64,
                s[0], s[1], s[2], s[3], static_cast<std::int64_t>(last_step_),
                offered_);
  return buf;
}

void OnOffSource::restore_state(const std::string& blob) {
  std::array<std::uint64_t, 4> s{};
  std::int64_t last = 0, offered = 0;
  if (std::sscanf(blob.c_str(),
                  "onoff/1 %" SCNx64 " %" SCNx64 " %" SCNx64 " %" SCNx64
                  " %" SCNd64 " %" SCNd64,
                  &s[0], &s[1], &s[2], &s[3], &last, &offered) != 6)
    bad_blob("not an onoff/1 record");
  if (last < 0 || offered < 0) bad_blob("negative counter");
  rng_.set_state(s);
  last_step_ = last;
  offered_ = offered;
}

// --- MmppSource ----------------------------------------------------------

MmppSource::MmppSource(const Topology& topo, const TrafficSpec& spec,
                       const BurstSpec& burst)
    : topo_(topo),
      spec_(spec),
      p01_(burst.p01),
      p10_(burst.p10),
      rng_(spec.seed) {
  MR_REQUIRE_MSG(spec.rate >= 0.0 && spec.rate <= 1.0,
                 "injection rate must be in [0, 1], got " << spec.rate);
  MR_REQUIRE_MSG(p01_ > 0.0 && p01_ <= 1.0 && p10_ > 0.0 && p10_ <= 1.0,
                 "mmpp transition probabilities must be in (0, 1], got p01="
                     << p01_ << " p10=" << p10_);
}

void MmppSource::emit(Step step, std::vector<Demand>& out) {
  MR_REQUIRE_MSG(step > last_step_,
                 "emit steps must be strictly increasing: " << step
                     << " after " << last_step_);
  // One transition draw per elapsed step, so the chain is a function of
  // the step index even when the emit sequence has gaps.
  for (Step s = last_step_ + 1; s <= step; ++s) {
    const double u = rng_.next_double();
    if (state_ == 0) {
      if (u < p01_) state_ = 1;
    } else {
      if (u < p10_) state_ = 0;
    }
  }
  last_step_ = step;
  if (state_ == 0) return;  // low state: silent
  const NodeId n = topo_.num_terminals();
  for (NodeId t = 0; t < n; ++t) {
    if (rng_.next_double() >= spec_.rate) continue;
    const NodeId dest = traffic_destination(topo_, spec_, t, rng_);
    if (dest == kInvalidNode) continue;
    out.push_back(Demand{topo_.terminal_router(t), topo_.terminal_router(dest),
                         step});
    ++offered_;
  }
}

std::string MmppSource::save_state() const {
  const std::array<std::uint64_t, 4> s = rng_.state();
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "mmpp/1 %016" PRIx64 " %016" PRIx64 " %016" PRIx64
                " %016" PRIx64 " %" PRId64 " %" PRId64 " %d",
                s[0], s[1], s[2], s[3], static_cast<std::int64_t>(last_step_),
                offered_, state_);
  return buf;
}

void MmppSource::restore_state(const std::string& blob) {
  std::array<std::uint64_t, 4> s{};
  std::int64_t last = 0, offered = 0;
  int state = 0;
  if (std::sscanf(blob.c_str(),
                  "mmpp/1 %" SCNx64 " %" SCNx64 " %" SCNx64 " %" SCNx64
                  " %" SCNd64 " %" SCNd64 " %d",
                  &s[0], &s[1], &s[2], &s[3], &last, &offered, &state) != 7)
    bad_blob("not a mmpp/1 record");
  if (last < 0 || offered < 0) bad_blob("negative counter");
  if (state != 0 && state != 1) bad_blob("mmpp state must be 0 or 1");
  rng_.set_state(s);
  last_step_ = last;
  offered_ = offered;
  state_ = state;
}

// --- DriftingHotspotSource ----------------------------------------------

DriftingHotspotSource::DriftingHotspotSource(const Topology& topo,
                                             const TrafficSpec& spec,
                                             const BurstSpec& burst)
    : topo_(topo),
      spec_(spec),
      drift_period_(burst.drift_period),
      rng_(spec.seed) {
  MR_REQUIRE_MSG(spec.rate >= 0.0 && spec.rate <= 1.0,
                 "injection rate must be in [0, 1], got " << spec.rate);
  MR_REQUIRE_MSG(spec.hotspot_fraction >= 0.0 && spec.hotspot_fraction <= 1.0,
                 "hotspot fraction must be in [0, 1]");
  MR_REQUIRE_MSG(drift_period_ >= 1,
                 "drift period must be >= 1, got " << drift_period_);
  spec_.pattern = TrafficPattern::Hotspot;
  base_sink_ = hotspot_sink(topo, spec_);
}

NodeId DriftingHotspotSource::sink_at(Step step) const {
  const NodeId n = topo_.num_terminals();
  return static_cast<NodeId>(
      (base_sink_ + static_cast<NodeId>((step - 1) / drift_period_ %
                                        static_cast<Step>(n))) %
      n);
}

void DriftingHotspotSource::emit(Step step, std::vector<Demand>& out) {
  MR_REQUIRE_MSG(step > last_step_,
                 "emit steps must be strictly increasing: " << step
                     << " after " << last_step_);
  last_step_ = step;
  TrafficSpec drifted = spec_;
  drifted.hotspot_sink = sink_at(step);
  const NodeId n = topo_.num_terminals();
  for (NodeId t = 0; t < n; ++t) {
    if (rng_.next_double() >= spec_.rate) continue;
    const NodeId dest = traffic_destination(topo_, drifted, t, rng_);
    if (dest == kInvalidNode) continue;
    out.push_back(Demand{topo_.terminal_router(t), topo_.terminal_router(dest),
                         step});
    ++offered_;
  }
}

std::string DriftingHotspotSource::save_state() const {
  const std::array<std::uint64_t, 4> s = rng_.state();
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "drift/1 %016" PRIx64 " %016" PRIx64 " %016" PRIx64
                " %016" PRIx64 " %" PRId64 " %" PRId64,
                s[0], s[1], s[2], s[3], static_cast<std::int64_t>(last_step_),
                offered_);
  return buf;
}

void DriftingHotspotSource::restore_state(const std::string& blob) {
  std::array<std::uint64_t, 4> s{};
  std::int64_t last = 0, offered = 0;
  if (std::sscanf(blob.c_str(),
                  "drift/1 %" SCNx64 " %" SCNx64 " %" SCNx64 " %" SCNx64
                  " %" SCNd64 " %" SCNd64,
                  &s[0], &s[1], &s[2], &s[3], &last, &offered) != 6)
    bad_blob("not a drift/1 record");
  if (last < 0 || offered < 0) bad_blob("negative counter");
  rng_.set_state(s);
  last_step_ = last;
  offered_ = offered;
}

std::unique_ptr<TrafficSource> make_traffic_source(const Topology& topo,
                                                   const TrafficSpec& spec,
                                                   const BurstSpec& burst) {
  if (burst.stationary())
    return std::make_unique<BernoulliSource>(topo, spec);
  if (burst.kind == "onoff")
    return std::make_unique<OnOffSource>(topo, spec, burst);
  if (burst.kind == "mmpp") return std::make_unique<MmppSource>(topo, spec, burst);
  MR_REQUIRE_MSG(burst.kind == "drift",
                 "unknown burst kind '" << burst.kind << "'");
  return std::make_unique<DriftingHotspotSource>(topo, spec, burst);
}

}  // namespace mr
