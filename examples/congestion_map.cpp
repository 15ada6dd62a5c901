// Congestion map: ASCII heatmap of peak queue occupancy per node over a
// run — makes the "hot spots" the paper's introduction talks about
// visible. Default: transpose on a 24×24 mesh under the Theorem 15 router.
//
//   $ ./congestion_map [router] [n] [k] [workload: transpose|random|mirror]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace {

using namespace mr;

struct PeakMap : StepObserver {
  std::vector<int> peak;
  void on_step(const Sim& e, const StepDigest&) override {
    if (peak.empty()) peak.assign(e.mesh().num_nodes(), 0);
    for (NodeId u = 0; u < e.mesh().num_nodes(); ++u)
      peak[u] = std::max(peak[u], e.occupancy(u));
  }
};

char shade(int v) {
  static const char* ramp = " .:-=+*#%@";
  return ramp[std::min(v, 9)];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string router = argc > 1 ? argv[1] : "bounded-dimension-order";
  const std::int32_t n = argc > 2 ? std::atoi(argv[2]) : 24;
  const int k = argc > 3 ? std::atoi(argv[3]) : 4;
  const std::string workload_name = argc > 4 ? argv[4] : "transpose";

  const Mesh mesh = Mesh::square(n);
  Workload w;
  if (workload_name == "transpose") {
    w = transpose(mesh);
  } else if (workload_name == "mirror") {
    w = mirror(mesh);
  } else {
    w = random_permutation(mesh, 17);
  }

  auto algo = make_algorithm(router);
  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = 5000;
  Engine e(mesh, config, *algo);
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
  PeakMap map;
  e.add_observer(&map);
  e.prepare();
  const Step steps = e.run(200000);

  std::cout << router << " on " << workload_name << ", " << n << "x" << n
            << ", k=" << k << ": " << e.delivered_count() << "/"
            << e.num_packets() << " delivered in " << steps << " steps"
            << (e.all_delivered() ? "" : "  (DEADLOCKED)") << "\n\n";
  std::cout << "peak queue occupancy per node (north at top; ' '=0 .. '@'>=9):\n";
  for (std::int32_t r = n - 1; r >= 0; --r) {
    for (std::int32_t c = 0; c < n; ++c)
      std::cout << shade(map.peak[mesh.id_of(c, r)]);
    std::cout << '\n';
  }
  return 0;
}
