// Online adaptive adversary for the §2 exchange hook.
//
// The lower-bound constructions (lower_bound/main_construction.cpp) drive
// the adversary interface with a *constructed* exchange strategy proved to
// force Ω-queue growth. GreedyAdversary is the empirical counterpart: an
// online strategy with no foreknowledge of the instance that watches the
// queue occupancies the run actually produces and greedily re-aims packet
// destinations at the hottest observed node, using only the legal §2
// operation (destination exchange between phases (a) and (c)).
//
// Legality contract (identical to the constructed interceptor's): an
// exchange may never turn an already-scheduled move unprofitable — the
// engine re-validates minimality after phase (b) and throws otherwise.
// The adversary therefore checks, before each swap, that both affected
// packets' scheduled moves (if any) stay profitable under the swapped
// destinations, and skips swaps that would park a packet on its own
// location (an undeliverable packet stalls the run, which terminates it —
// counter-productive for an adversary that wants congestion, not an early
// exit).
//
// Scenario E20 (bench/e20_adversary.cpp) races this strategy on a random
// permutation against the constructed §5 instance and compares peak queue
// occupancies.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/algorithm.hpp"
#include "sim/sim.hpp"

namespace mr {

class GreedyAdversary : public StepInterceptor {
 public:
  /// `max_swaps_per_step` bounds phase-(b) work (0 = unlimited).
  explicit GreedyAdversary(int max_swaps_per_step = 0)
      : max_swaps_per_step_(max_swaps_per_step) {}

  std::size_t exchanges() const { return exchanges_; }

  void after_schedule(Sim& e, std::span<const ScheduledMove> moves) override;

 private:
  /// True if giving packet `p` destination `dest` keeps p's scheduled move
  /// (if any) profitable and does not park p on its own location.
  bool dest_legal_for(const Sim& e, PacketId p, NodeId dest) const;

  /// An exchange partner: a packet and its destination's distance to the
  /// hot node.
  struct Candidate {
    std::int32_t dist;
    PacketId packet;
  };

  int max_swaps_per_step_;
  std::size_t exchanges_ = 0;
  std::span<const ScheduledMove> moves_;
  // Per-step scratch, kept to reuse its storage.
  /// Per-packet scheduled move index for the current step, or -1.
  std::vector<std::int32_t> scheduled_move_;
  /// Per-packet distance to the hot node, or -1 if delivered.
  std::vector<std::int32_t> dist_;
  /// Counting-sort bucket offsets, one per distance.
  std::vector<std::size_t> bucket_start_;
  /// Undelivered packets ascending by (dist, id).
  std::vector<Candidate> pool_;
  /// Packets already exchanged this step.
  std::vector<std::uint8_t> consumed_;
};

}  // namespace mr
