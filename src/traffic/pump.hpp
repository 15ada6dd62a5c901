// Step-boundary injection pump: feeds a TrafficSource into the engine's
// dynamic-injection path with a bounded generation-ahead window.
//
// The pump emits the source one step at a time, always keeping `ahead`
// steps of future-dated injections scheduled (Engine::pump_packet). The
// engine consumes them through the exact same injection buffer that
// pre-scheduled add_packet demands use, so an open-loop run is
// bit-identical to pre-materializing the whole stream up front — the
// window only bounds memory. When the network goes idle mid-stream (low
// rates), the pump fast-forwards emission until something is pending
// again so the clock can keep advancing.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "traffic/source.hpp"

namespace mr {

/// Snapshottable (sim/snapshot.hpp): the pump's blob carries the emission
/// window (emitted-through step, primed flag) and the offered-load
/// counters, but NOT the engine or source — restore those from the same
/// checkpoint separately, then restore_state() the pump constructed over
/// them. Do not call prime() on a restored pump.
class TrafficPump : public Snapshottable {
 public:
  /// The source will be emitted for steps 1..inject_steps; `ahead` >= 1 is
  /// the generation-ahead window.
  TrafficPump(Engine& engine, TrafficSource& source, Step inject_steps,
              Step ahead);

  /// Emits the initial window via Engine::add_packet. Must be called
  /// exactly once, before engine.prepare().
  void prime();

  /// Tops the window up to engine.step() + ahead (capped at inject_steps)
  /// via Engine::pump_packet; call between steps. If the engine has fully
  /// drained while the stream still has steps left, fast-forwards emission
  /// until at least one future injection is pending (or the stream ends).
  void advance();

  /// True once all inject_steps steps have been emitted.
  bool exhausted() const { return emitted_ >= inject_steps_; }
  Step emitted_through() const { return emitted_; }
  Step inject_steps() const { return inject_steps_; }

  /// Total demands emitted so far (offered load).
  std::int64_t offered() const { return offered_; }
  /// Demands emitted with injection step in [first, last].
  std::int64_t offered_between(Step first, Step last) const;

  std::string save_state() const override;
  void restore_state(const std::string& blob) override;

 private:
  void emit_one(bool pre_prepare);

  Engine& engine_;
  TrafficSource& source_;
  Step inject_steps_;
  Step ahead_;
  Step emitted_ = 0;
  bool primed_ = false;
  std::int64_t offered_ = 0;
  std::vector<std::int32_t> offered_per_step_;  ///< index = step - 1
  std::vector<Demand> buf_;
};

}  // namespace mr
