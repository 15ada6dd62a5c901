// Latency summary of a run: a fixed set of quantiles over per-packet
// latencies (delivered_at - injected_at).
#pragma once

#include <vector>

#include "core/stats.hpp"
#include "sim/packet.hpp"

namespace mr {

/// Fixed set of latency quantiles reported by every run (the scenario
/// layer's structured metrics surface).
struct LatencySummary {
  double mean = 0;
  Step p50 = 0;
  Step p95 = 0;
  Step p99 = 0;
  Step max = 0;

  bool operator==(const LatencySummary&) const = default;
};

/// LatencySummary of a latency histogram; all zero when it is empty.
LatencySummary latency_summary(const Histogram& latency);

/// LatencySummary over the delivered packets of `packets`
/// (delivered_at - injected_at each). Computed from final packet records
/// rather than streamed deliveries, so it is order-insensitive and a run
/// restored from a checkpoint reproduces the uninterrupted run's summary
/// exactly.
LatencySummary latency_summary_from_packets(const std::vector<Packet>& packets);

}  // namespace mr
