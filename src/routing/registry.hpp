// Factory and catalog for the built-in routing algorithms. Used by the
// examples and the benchmark binaries.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/algorithm.hpp"

namespace mr {

/// Typed construction parameters. Only the fields an algorithm consumes
/// matter to it; the rest are ignored (the stray router is currently the
/// only parameterised one).
struct AlgorithmParams {
  int stray_bound = 2;            ///< δ: nodes a packet may stray (stray)
  int stray_block_threshold = 3;  ///< blocked steps before deflecting (stray)
};

/// A fully specified algorithm: catalog name + typed parameters. The
/// string spellings ("stray-7") parse into this.
struct AlgorithmSpec {
  std::string name;
  AlgorithmParams params;
};

/// One catalog entry, surfaced by `meshroute_bench --list`.
struct AlgorithmInfo {
  std::string name;         ///< default registry spelling, e.g. "stray-2"
  std::string description;  ///< one line
  QueueLayout layout = QueueLayout::Central;
  bool dx_minimal = false;  ///< in the Theorem 14 lower-bound class
};

/// All registered algorithms, in a stable order.
const std::vector<AlgorithmInfo>& algorithm_catalog();

/// Creates a fresh instance from a typed spec. Throws InvariantViolation
/// for unknown names or out-of-range parameters. Known names: those in
/// algorithm_catalog(), plus the bare "stray" (parameterised by
/// params.stray_bound / params.stray_block_threshold) and the §6 router
/// "fastroute" / "fastroute-improved". The §6 router stays out of the
/// catalog: it needs an n×n mesh with n = 3^i ≥ 27, a queue capacity of at
/// least 834 (FastRouteAlgorithm::queue_bound) and no stall limit, since
/// its schedule has long idle phases.
std::unique_ptr<Algorithm> make_algorithm(const AlgorithmSpec& spec);

/// String convenience wrapper: parses "stray-N" into an AlgorithmSpec with
/// stray_bound = N; every other name passes through unchanged.
std::unique_ptr<Algorithm> make_algorithm(const std::string& name);

/// Parses a registry spelling into a typed spec (no instantiation). A
/// "stray-" suffix that is not one decimal int in range keeps the whole
/// name, so make_algorithm rejects it as unknown.
AlgorithmSpec parse_algorithm_spec(const std::string& name);

/// Names of all registered algorithms, in catalog order.
std::vector<std::string> algorithm_names();

/// Names of the destination-exchangeable minimal adaptive algorithms (the
/// class covered by the Theorem 14 lower bound).
std::vector<std::string> dx_minimal_algorithm_names();

}  // namespace mr
