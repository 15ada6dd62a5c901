// δ-stray adaptive router (§5 "Nonminimal extensions").
//
// A destination-exchangeable router that is allowed to move a packet up to
// δ nodes beyond the rectangle spanned by its shortest source→destination
// paths. Normally it routes minimally (greedy matching of packets to
// profitable outlinks); a packet blocked for several consecutive steps is
// deflected onto an unprofitable outlink to route around the hot spot.
//
// The stray budget is tracked destination-exchangeably via a two-phase
// handshake in the packet state: the blocking node *arms* a deflection
// (direction + flag) during its state update; the next node observes the
// armed flag together with the matching arrival inlink, charges one unit
// of debt, and clears the flag. Since every unprofitable hop costs one
// debt unit and debt is capped at δ, the packet can never be more than δ
// outside its rectangle — which the engine independently enforces.
#pragma once

#include "routing/dx.hpp"

namespace mr {

class StrayRouter final : public DxAlgorithm {
 public:
  /// delta: stray budget δ. block_threshold: consecutive blocked steps
  /// before a deflection arms (re-aimed after twice that many).
  explicit StrayRouter(int delta, int block_threshold = 3)
      : delta_(delta), block_threshold_(block_threshold) {}

  std::string name() const override {
    return "stray-" + std::to_string(delta_);
  }
  bool minimal() const override { return delta_ == 0; }
  int max_stray() const override { return delta_; }

 protected:
  void dx_plan_out(NodeCtx& ctx, std::span<const PacketDxView> resident,
                   OutPlan& plan) override;
  void dx_plan_in(NodeCtx& ctx, std::span<const DxOffer> offers,
                  InPlan& plan) override;
  void dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) override;

 private:
  // packet-state layout
  static constexpr std::uint64_t kDirMaskBits = 0x3;   // bits 0-1: armed dir
  static constexpr std::uint64_t kArmedBit = 1u << 2;  // bit 2: armed
  static constexpr int kDebtShift = 3;                 // bits 3-9: debt
  static constexpr std::uint64_t kDebtMask = 0x7F;
  static constexpr int kStreakShift = 10;              // bits 10-17: streak
  static constexpr std::uint64_t kStreakMask = 0xFF;

  static int debt(std::uint64_t s) {
    return static_cast<int>((s >> kDebtShift) & kDebtMask);
  }
  static int streak(std::uint64_t s) {
    return static_cast<int>((s >> kStreakShift) & kStreakMask);
  }
  static bool armed(std::uint64_t s) { return (s & kArmedBit) != 0; }
  static Dir armed_dir(std::uint64_t s) {
    return static_cast<Dir>(s & kDirMaskBits);
  }

  int delta_;
  int block_threshold_;
};

}  // namespace mr
