#include "sim/metrics.hpp"

namespace mr {

LatencySummary latency_summary(const Histogram& latency) {
  LatencySummary s;
  if (latency.total() == 0) return s;
  s.mean = latency.mean();
  s.p50 = latency.percentile(0.5);
  s.p95 = latency.percentile(0.95);
  s.p99 = latency.percentile(0.99);
  s.max = latency.max();
  return s;
}

LatencySummary latency_summary_from_packets(const std::vector<Packet>& packets) {
  Histogram h;
  for (const Packet& p : packets)
    if (p.delivered()) h.add(p.delivered_at - p.injected_at);
  return latency_summary(h);
}

}  // namespace mr
