#include "sim/fault.hpp"

#include <cinttypes>
#include <cstdio>

#include "core/assert.hpp"
#include "core/parse.hpp"
#include "topo/topology.hpp"

namespace mr {
namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool parse_dir_letter(const std::string& s, Dir* out) {
  if (s.size() != 1) return false;
  for (Dir d : kAllDirs) {
    if (s[0] == dir_name(d)[0]) {
      *out = d;
      return true;
    }
  }
  return false;
}

/// Parses the trailing "@<down>[-<up>]" window of one event token.
bool parse_window(const std::string& text, FaultEvent* ev,
                  std::string* error) {
  const std::size_t dash = text.find('-');
  std::int64_t down = 0, up = 0;
  if (dash == std::string::npos) {
    if (!parse_decimal(text, &down))
      return fail(error, "faults: bad down step '" + text + "'");
    ev->down_at = down;
    ev->up_at = kStepNever;
  } else {
    if (!parse_decimal(std::string_view(text).substr(0, dash), &down) ||
        !parse_decimal(std::string_view(text).substr(dash + 1), &up))
      return fail(error, "faults: bad window '" + text + "'");
    ev->down_at = down;
    ev->up_at = up;
  }
  if (ev->down_at < 1)
    return fail(error, "faults: down step must be >= 1");
  if (ev->up_at <= ev->down_at)
    return fail(error, "faults: up step must be > down step");
  return true;
}

}  // namespace

bool FaultSchedule::active_at(Step t) const {
  for (const FaultEvent& e : events)
    if (e.down_at <= t && t < e.up_at) return true;
  return false;
}

bool FaultSchedule::node_down_at(NodeId u, Step t) const {
  for (const FaultEvent& e : events)
    if (e.kind == FaultEvent::Kind::Node && e.node == u && e.down_at <= t &&
        t < e.up_at)
      return true;
  return false;
}

std::int64_t FaultSchedule::epoch_at(Step t) const {
  std::int64_t epoch = 0;
  for (const FaultEvent& e : events) {
    if (e.down_at <= t) ++epoch;
    if (e.up_at != kStepNever && e.up_at <= t) ++epoch;
  }
  return epoch;
}

bool parse_fault_schedule(const std::string& text, FaultSchedule* out,
                          std::string* error) {
  FaultSchedule schedule;
  if (text.empty() || text == "none") {
    *out = schedule;
    return true;
  }
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(start, comma - start);
    start = comma + 1;
    const std::size_t at = token.find('@');
    if (at == std::string::npos)
      return fail(error, "faults: event '" + token + "' has no @<down> window");
    const std::string head = token.substr(0, at);
    FaultEvent ev;
    if (!parse_window(token.substr(at + 1), &ev, error)) return false;
    if (head.rfind("node:", 0) == 0) {
      ev.kind = FaultEvent::Kind::Node;
      if (!parse_decimal(std::string_view(head).substr(5), &ev.node) ||
          ev.node < 0)
        return fail(error, "faults: bad node id in '" + token + "'");
    } else if (head.rfind("link:", 0) == 0) {
      ev.kind = FaultEvent::Kind::Link;
      const std::string rest = head.substr(5);
      const std::size_t colon = rest.find(':');
      if (colon == std::string::npos ||
          !parse_decimal(std::string_view(rest).substr(0, colon), &ev.node) ||
          ev.node < 0 || !parse_dir_letter(rest.substr(colon + 1), &ev.dir))
        return fail(error,
                    "faults: expected link:<node>:<N|E|S|W> in '" + token + "'");
    } else {
      return fail(error, "faults: event '" + token +
                             "' must start with node: or link:");
    }
    schedule.events.push_back(ev);
  }
  *out = schedule;
  return true;
}

std::string format_fault_schedule(const FaultSchedule& schedule) {
  if (schedule.empty()) return "none";
  std::string out;
  char buf[96];
  for (const FaultEvent& e : schedule.events) {
    if (!out.empty()) out += ',';
    if (e.kind == FaultEvent::Kind::Node) {
      std::snprintf(buf, sizeof buf, "node:%d@%" PRId64, e.node,
                    static_cast<std::int64_t>(e.down_at));
    } else {
      std::snprintf(buf, sizeof buf, "link:%d:%s@%" PRId64, e.node,
                    dir_name(e.dir), static_cast<std::int64_t>(e.down_at));
    }
    out += buf;
    if (e.up_at != kStepNever) {
      std::snprintf(buf, sizeof buf, "-%" PRId64,
                    static_cast<std::int64_t>(e.up_at));
      out += buf;
    }
  }
  return out;
}

std::string validate_fault_schedule(const FaultSchedule& schedule,
                                    const Topology& topo) {
  for (const FaultEvent& e : schedule.events) {
    if (e.node < 0 || e.node >= topo.num_nodes())
      return "fault event names node " + std::to_string(e.node) +
             " outside the topology (" + std::to_string(topo.num_nodes()) +
             " nodes)";
    if (e.kind == FaultEvent::Kind::Link &&
        topo.neighbor(e.node, e.dir) == kInvalidNode)
      return "fault event names missing link " + std::to_string(e.node) + ":" +
             dir_name(e.dir);
  }
  return "";
}

}  // namespace mr
