// Phase trace of the §6 O(n)-time minimal adaptive algorithm (the
// programmatic rendition of Figures 5–7): prints the full segment schedule
// with measured activity per segment.
//
//   $ ./fastroute_trace [n] [seed]     (n a power of 3, >= 27)
#include <cstdlib>
#include <iostream>

#include "check/fastroute_oracle.hpp"
#include "core/table.hpp"
#include "fastroute/fastroute.hpp"
#include "harness/runner.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

int main(int argc, char** argv) {
  using namespace mr;
  const std::int32_t n = argc > 1 ? std::atoi(argv[1]) : 27;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;

  const FastRouteAlgorithm algo;
  FastRouteOracle oracle(n, algo.options());
  const FastRouteAlgorithm::Schedule& schedule = oracle.schedule();
  const Workload workload = random_permutation(Mesh::square(n), seed);

  std::cout << "§6 algorithm on a " << n << "x" << n
            << " random permutation (" << workload.size() << " packets)\n"
            << "schedule: " << schedule.segments.size() << " segments, "
            << schedule.length << " steps (= " << double(schedule.length) / n
            << "·n; Theorem 34 bound 972·n)\n\n";

  RunSpec spec;
  spec.width = spec.height = n;
  spec.algorithm = algo.name();
  spec.queue_capacity = algo.queue_bound();
  spec.stall_limit = 0;
  spec.max_steps = schedule.length + 1;
  RunHooks hooks;
  hooks.step_observers.push_back(&oracle);
  const RunResult r = run_workload(spec, workload, hooks);
  std::cout << "finished at step " << r.steps << ", delivered " << r.delivered
            << "/" << r.packets << ", peak queue " << r.max_queue
            << " (Lemma 28 bound " << algo.queue_bound() << ")\n\n";

  Table table({"segment", "class", "phase", "j", "tiling", "kind",
               "start", "length", "moves", "last useful step"});
  int idx = 0;
  for (std::size_t i = 0; i < schedule.segments.size(); ++i) {
    const FastRouteAlgorithm::Segment& seg = schedule.segments[i];
    const FastRouteOracle::SegmentStats& st = oracle.stats()[i];
    // Keep the trace compact: skip segments in which nothing moved.
    if (st.moves == 0 && idx % 4 != 0) {
      ++idx;
      continue;
    }
    table.row()
        .add(idx++)
        .add(FastRouteAlgorithm::class_name(seg.cls))
        .add(seg.horizontal ? "H" : "V")
        .add(seg.j)
        .add(seg.tiling)
        .add(FastRouteAlgorithm::kind_name(seg.kind))
        .add(seg.start)
        .add(seg.length)
        .add(st.moves)
        .add(st.last_move_offset);
  }
  table.print(std::cout);
  std::cout << "(segments with no packet movement are partially elided)\n";
  return r.all_delivered ? 0 : 1;
}
