// Timing shims for the traced benchmark run. Each one wraps a public
// extension point of the simulator, so the spans are recorded from the
// benchmark's side of a layer boundary and the simulator itself is not
// modified:
//   * TimedAlgorithm — an Algorithm decorator timing the three policies
//     (routing layer, DX adapter included);
//   * TimedObserver  — a StepObserver decorator timing one attached
//     observer (check and telemetry layers);
//   * StepClock      — a legacy Observer whose on_step_end timestamps give
//     the per-step time of MainConstruction::run_construction, and which
//     counts the construction's moves.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/algorithm.hpp"
#include "sim/sim.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Busy time and call count of the three policies of one Algorithm.
struct PolicyTimes {
  double plan_out_s = 0;
  double plan_in_s = 0;
  double update_s = 0;
  std::int64_t plan_out_calls = 0;
  std::int64_t plan_in_calls = 0;
  std::int64_t update_calls = 0;

  PolicyTimes& operator+=(const PolicyTimes& o) {
    plan_out_s += o.plan_out_s;
    plan_in_s += o.plan_in_s;
    update_s += o.update_s;
    plan_out_calls += o.plan_out_calls;
    plan_in_calls += o.plan_in_calls;
    update_calls += o.update_calls;
    return *this;
  }
};

/// Forwards every Algorithm virtual to `inner` and times the policies. The
/// engine builds one per band through its AlgorithmFactory constructor, so
/// each instance is only ever touched by the thread stepping its band.
class TimedAlgorithm final : public mr::Algorithm {
 public:
  explicit TimedAlgorithm(std::unique_ptr<mr::Algorithm> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  mr::QueueLayout queue_layout() const override {
    return inner_->queue_layout();
  }
  bool minimal() const override { return inner_->minimal(); }
  int max_stray() const override { return inner_->max_stray(); }
  void init(mr::Sim& e) override { inner_->init(e); }

  void plan_out(mr::Sim& e, mr::NodeId u, mr::OutPlan& plan) override {
    const Clock::time_point t0 = Clock::now();
    inner_->plan_out(e, u, plan);
    times_.plan_out_s += seconds_between(t0, Clock::now());
    ++times_.plan_out_calls;
  }
  void plan_in(mr::Sim& e, mr::NodeId v, std::span<const mr::Offer> offers,
               mr::InPlan& plan) override {
    const Clock::time_point t0 = Clock::now();
    inner_->plan_in(e, v, offers, plan);
    times_.plan_in_s += seconds_between(t0, Clock::now());
    ++times_.plan_in_calls;
  }
  void update_state(mr::Sim& e, mr::NodeId v) override {
    const Clock::time_point t0 = Clock::now();
    inner_->update_state(e, v);
    times_.update_s += seconds_between(t0, Clock::now());
    ++times_.update_calls;
  }

  const PolicyTimes& times() const { return times_; }

 private:
  std::unique_ptr<mr::Algorithm> inner_;
  PolicyTimes times_;
};

/// Adds the time spent inside `inner`'s callbacks to `*busy_s`.
class TimedObserver final : public mr::StepObserver {
 public:
  TimedObserver(mr::StepObserver& inner, double* busy_s)
      : inner_(inner), busy_s_(busy_s) {}

  void on_prepare(const mr::Sim& e, const mr::StepDigest& d) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_prepare(e, d);
    *busy_s_ += seconds_between(t0, Clock::now());
  }
  void on_step(const mr::Sim& e, const mr::StepDigest& d) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_step(e, d);
    *busy_s_ += seconds_between(t0, Clock::now());
  }

 private:
  mr::StepObserver& inner_;
  double* busy_s_;
};

/// Legacy observer handed to MainConstruction::run_construction: the gap
/// between consecutive on_step_end calls is one construction step.
class StepClock final : public mr::Observer {
 public:
  void on_prepare_end(const mr::Sim&) override { last_ = Clock::now(); }
  void on_step_end(const mr::Sim&) override {
    const Clock::time_point now = Clock::now();
    step_us_.push_back(seconds_between(last_, now) * 1e6);
    last_ = now;
  }
  void on_move(const mr::Sim&, const mr::Packet&, mr::NodeId,
               mr::NodeId) override {
    ++moves_;
  }

  const std::vector<double>& step_us() const { return step_us_; }
  std::int64_t moves() const { return moves_; }

 private:
  Clock::time_point last_{};
  std::vector<double> step_us_;
  std::int64_t moves_ = 0;
};

/// Running sum of StepDigest::injections: packets that entered the network
/// (source == dest deliveries included), for the injection backlog.
class InjectionCounter final : public mr::StepObserver {
 public:
  void on_prepare(const mr::Sim&, const mr::StepDigest& d) override {
    injected_ += d.injections;
  }
  void on_step(const mr::Sim&, const mr::StepDigest& d) override {
    injected_ += d.injections;
  }
  std::int64_t injected() const { return injected_; }

 private:
  std::int64_t injected_ = 0;
};

}  // namespace perfbench
