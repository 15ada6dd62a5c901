#include "workload/lk.hpp"

#include <algorithm>
#include <sstream>

#include "core/assert.hpp"
#include "core/parse.hpp"
#include "core/rng.hpp"

namespace mr {

namespace {

/// Slot pool: every node of `nodes` repeated `degree` times, shuffled.
std::vector<NodeId> shuffled_slots(const std::vector<NodeId>& nodes,
                                   int degree, Rng& rng) {
  std::vector<NodeId> slots;
  slots.reserve(nodes.size() * static_cast<std::size_t>(degree));
  for (int copy = 0; copy < degree; ++copy)
    slots.insert(slots.end(), nodes.begin(), nodes.end());
  shuffle(slots, rng);
  return slots;
}

}  // namespace

bool parse_lk_spec(const std::string& text, LkSpec* out, std::string* error) {
  LkSpec spec;
  std::istringstream is(text);
  std::string part;
  std::vector<std::string> parts;
  while (std::getline(is, part, ':')) parts.push_back(part);
  if (parts.size() < 3 || parts.size() > 4) {
    if (error) *error = "lk spec needs variant:l:k[:seed], got '" + text + "'";
    return false;
  }
  spec.variant = parts[0];
  if (spec.variant != "uniform" && spec.variant != "clustered" &&
      spec.variant != "worst-case") {
    if (error) *error = "unknown lk variant '" + spec.variant + "'";
    return false;
  }
  if (!parse_decimal(parts[1], &spec.l) || spec.l < 1) {
    if (error) *error = "lk spec needs l >= 1, got '" + parts[1] + "'";
    return false;
  }
  if (!parse_decimal(parts[2], &spec.k) || spec.k < 1) {
    if (error) *error = "lk spec needs k >= 1, got '" + parts[2] + "'";
    return false;
  }
  if (parts.size() == 4) {
    if (!parse_decimal(parts[3], &spec.seed)) {
      if (error) *error = "malformed lk seed '" + parts[3] + "'";
      return false;
    }
  }
  *out = spec;
  return true;
}

std::string format_lk_spec(const LkSpec& spec) {
  std::ostringstream os;
  os << spec.variant << ':' << spec.l << ':' << spec.k << ':' << spec.seed;
  return os.str();
}

Workload lk_uniform(const Topology& mesh, int l, int k, std::uint64_t seed) {
  MR_REQUIRE(l >= 1 && k >= 1);
  Rng rng(seed);
  const int sends = std::min(l, k);
  const std::vector<NodeId> nodes = mesh.all_nodes();
  const std::vector<NodeId> slots = shuffled_slots(nodes, k, rng);
  Workload w;
  w.reserve(nodes.size() * static_cast<std::size_t>(sends));
  std::size_t next_slot = 0;
  for (const NodeId src : nodes)
    for (int i = 0; i < sends; ++i)
      w.push_back(Demand{src, slots[next_slot++], 0});
  return w;
}

Workload lk_clustered(const Topology& mesh, int l, int k, std::uint64_t seed) {
  MR_REQUIRE(l >= 1 && k >= 1);
  Rng rng(seed);
  const std::int32_t bw = (mesh.width() + 1) / 2;
  const std::int32_t bh = (mesh.height() + 1) / 2;
  std::vector<NodeId> sources, dests;
  for (std::int32_t r = 0; r < bh; ++r)
    for (std::int32_t c = 0; c < bw; ++c) {
      sources.push_back(mesh.id_of(c, r));
      dests.push_back(mesh.id_of(mesh.width() - 1 - c, mesh.height() - 1 - r));
    }
  std::vector<NodeId> send_slots = shuffled_slots(sources, l, rng);
  std::vector<NodeId> recv_slots = shuffled_slots(dests, k, rng);
  const std::size_t m = std::min(send_slots.size(), recv_slots.size());
  Workload w;
  w.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    w.push_back(Demand{send_slots[i], recv_slots[i], 0});
  std::sort(w.begin(), w.end(), [](const Demand& a, const Demand& b) {
    return a.source != b.source ? a.source < b.source : a.dest < b.dest;
  });
  return w;
}

Workload lk_worst_case(const Topology& mesh, int l, int k) {
  MR_REQUIRE(l >= 1 && k >= 1);
  const int copies = std::min(l, k);
  Workload w;
  for (std::int32_t r = 0; r < mesh.height(); ++r)
    for (std::int32_t c = 0; c < mesh.width() / 2; ++c)
      for (int i = 0; i < copies; ++i)
        w.push_back(Demand{mesh.id_of(c, r),
                           mesh.id_of(mesh.width() - 1 - c, r), 0});
  return w;
}

Workload make_lk_workload(const Topology& mesh, const LkSpec& spec) {
  if (spec.variant == "uniform")
    return lk_uniform(mesh, spec.l, spec.k, spec.seed);
  if (spec.variant == "clustered")
    return lk_clustered(mesh, spec.l, spec.k, spec.seed);
  MR_REQUIRE_MSG(spec.variant == "worst-case",
                 "unknown lk variant '" << spec.variant << "'");
  return lk_worst_case(mesh, spec.l, spec.k);
}

bool is_lk(const Topology& mesh, const Workload& w, int l, int k) {
  std::vector<int> sends(static_cast<std::size_t>(mesh.num_nodes()), 0);
  std::vector<int> receives(static_cast<std::size_t>(mesh.num_nodes()), 0);
  for (const Demand& d : w) {
    if (++sends[static_cast<std::size_t>(d.source)] > l) return false;
    if (++receives[static_cast<std::size_t>(d.dest)] > k) return false;
  }
  return true;
}

}  // namespace mr
