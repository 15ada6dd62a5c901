#include "traffic/pump.hpp"

#include <algorithm>
#include <sstream>

#include "core/assert.hpp"

namespace mr {

TrafficPump::TrafficPump(Engine& engine, TrafficSource& source,
                         Step inject_steps, Step ahead)
    : engine_(engine),
      source_(source),
      inject_steps_(inject_steps),
      ahead_(ahead) {
  MR_REQUIRE_MSG(inject_steps >= 0, "inject_steps must be >= 0");
  MR_REQUIRE_MSG(ahead >= 1, "generation-ahead window must be >= 1");
}

void TrafficPump::emit_one(bool pre_prepare) {
  ++emitted_;
  buf_.clear();
  source_.emit(emitted_, buf_);
  offered_per_step_.push_back(static_cast<std::int32_t>(buf_.size()));
  offered_ += static_cast<std::int64_t>(buf_.size());
  for (const Demand& d : buf_) {
    MR_REQUIRE_MSG(d.injected_at == emitted_,
                   "source emitted a demand dated " << d.injected_at
                       << " during step " << emitted_);
    if (pre_prepare)
      engine_.add_packet(d.source, d.dest, d.injected_at);
    else
      engine_.pump_packet(d.source, d.dest, d.injected_at);
  }
}

void TrafficPump::prime() {
  MR_REQUIRE_MSG(!primed_, "prime() called twice");
  primed_ = true;
  const Step target = std::min(ahead_, inject_steps_);
  while (emitted_ < target) emit_one(/*pre_prepare=*/true);
}

void TrafficPump::advance() {
  MR_REQUIRE_MSG(primed_, "advance() before prime()");
  const Step target = std::min(engine_.step() + ahead_, inject_steps_);
  while (emitted_ < target) emit_one(/*pre_prepare=*/false);
  // Idle gap at low rates: everything delivered and nothing pending, but
  // the stream is not over. Pull the window forward until some step
  // actually injects, so step_once can advance the clock again.
  while (engine_.all_delivered() && !exhausted())
    emit_one(/*pre_prepare=*/false);
}

std::string TrafficPump::save_state() const {
  std::string out = "pump/1 " + std::to_string(emitted_) + " " +
                    std::to_string(primed_ ? 1 : 0) + " " +
                    std::to_string(offered_) + " " +
                    std::to_string(offered_per_step_.size());
  for (std::int32_t c : offered_per_step_) {
    out += " ";
    out += std::to_string(c);
  }
  return out;
}

void TrafficPump::restore_state(const std::string& blob) {
  const auto bad = [](const char* what) {
    throw SnapshotError(SnapshotError::Kind::Format,
                        std::string("pump state blob: ") + what);
  };
  std::istringstream in(blob);
  std::string tag;
  long long emitted = 0, primed = 0, offered = 0, count = 0;
  if (!(in >> tag >> emitted >> primed >> offered >> count) || tag != "pump/1")
    bad("not a pump/1 record");
  if (emitted < 0 || emitted > inject_steps_ || offered < 0 || count != emitted)
    bad("inconsistent counters");
  std::vector<std::int32_t> per_step(static_cast<std::size_t>(count));
  for (std::int32_t& c : per_step)
    if (!(in >> c) || c < 0) bad("truncated per-step counts");
  emitted_ = emitted;
  primed_ = primed != 0;
  offered_ = offered;
  offered_per_step_ = std::move(per_step);
}

std::int64_t TrafficPump::offered_between(Step first, Step last) const {
  std::int64_t sum = 0;
  const Step lo = std::max<Step>(first, 1);
  const Step hi = std::min<Step>(last, emitted_);
  for (Step t = lo; t <= hi; ++t)
    sum += offered_per_step_[static_cast<std::size_t>(t - 1)];
  return sum;
}

}  // namespace mr
