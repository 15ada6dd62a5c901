// Topology registry + interface-contract coverage: a reusable property
// suite run against EVERY catalog entry (so a newly registered network
// gets the full battery for free), plus the factory's error paths.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "topo/mesh.hpp"
#include "topo/registry.hpp"
#include "topo/topology.hpp"

namespace mr {
namespace {

// ---------------------------------------------------------------------------
// Reusable property suite: the invariants every Topology must satisfy.
// Exercised exhaustively on a small non-square grid so row/column roles
// cannot be silently swapped.
// ---------------------------------------------------------------------------

void check_grid_contract(const Topology& t) {
  EXPECT_EQ(t.num_nodes(), t.width() * t.height());
  for (NodeId id = 0; id < t.num_nodes(); ++id) {
    const Coord c = t.coord_of(id);
    EXPECT_TRUE(t.contains(c));
    EXPECT_EQ(t.id_of(c), id) << t.name();
  }
  EXPECT_EQ(static_cast<std::int32_t>(t.all_nodes().size()), t.num_nodes());
}

void check_neighbor_contract(const Topology& t) {
  for (NodeId u = 0; u < t.num_nodes(); ++u) {
    for (Dir d : kAllDirs) {
      const NodeId v = t.neighbor(u, d);
      if (v == kInvalidNode) continue;
      EXPECT_GE(v, 0);
      EXPECT_LT(v, t.num_nodes());
      EXPECT_NE(v, u) << t.name() << ": self-loop at " << u;
      // Links are symmetric: the opposite port of the neighbor points back.
      EXPECT_EQ(t.neighbor(v, opposite(d)), u)
          << t.name() << ": " << u << " -" << dir_name(d) << "-> " << v;
      EXPECT_EQ(t.distance(u, v), 1)
          << t.name() << ": link " << u << "->" << v << " not distance 1";
    }
  }
}

void check_distance_contract(const Topology& t) {
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      const Delta d = t.delta(a, b);
      const std::int32_t dist = t.distance(a, b);
      EXPECT_EQ(dist, std::abs(d.east) + std::abs(d.north)) << t.name();
      EXPECT_EQ(dist, t.distance(b, a)) << t.name() << ": asymmetric";
      EXPECT_EQ(dist == 0, a == b) << t.name();
    }
  }
}

void check_profitable_contract(const Topology& t) {
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      const DirMask mask = t.profitable_dirs(a, b);
      for (Dir d : kAllDirs) {
        const NodeId nb = t.neighbor(a, d);
        if (nb == kInvalidNode) {
          EXPECT_FALSE(mask_has(mask, d))
              << t.name() << ": profitable dir with no link";
          continue;
        }
        // Profitable ⟺ the hop lands strictly closer.
        EXPECT_EQ(mask_has(mask, d), t.distance(nb, b) < t.distance(a, b))
            << t.name() << ": " << a << "->" << b << " dir " << dir_name(d);
      }
      if (a == b) {
        EXPECT_EQ(mask, DirMask{0}) << t.name();
      }
    }
  }
}

void check_terminal_contract(const Topology& t) {
  EXPECT_GE(t.concentration(), 1);
  EXPECT_EQ(t.num_terminals(), t.num_nodes() * t.concentration());
  for (NodeId r = 0; r < t.num_nodes(); ++r) {
    for (std::int32_t s = 0; s < t.concentration(); ++s) {
      const std::int32_t term = t.terminal_of(r, s);
      EXPECT_GE(term, 0);
      EXPECT_LT(term, t.num_terminals());
      EXPECT_EQ(t.terminal_router(term), r) << t.name();
      // Slots of one router are contiguous, slot 0 first (the traffic
      // layer's slot_of() arithmetic depends on this).
      EXPECT_EQ(term, t.terminal_of(r, 0) + s) << t.name();
    }
  }
}

void check_clone_contract(const Topology& t) {
  const std::unique_ptr<Topology> copy = t.clone();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->name(), t.name());
  EXPECT_EQ(copy->width(), t.width());
  EXPECT_EQ(copy->height(), t.height());
  EXPECT_EQ(copy->concentration(), t.concentration());
  for (NodeId u = 0; u < t.num_nodes(); ++u)
    for (Dir d : kAllDirs)
      EXPECT_EQ(copy->neighbor(u, d), t.neighbor(u, d)) << t.name();
}

void run_property_suite(const Topology& t) {
  check_grid_contract(t);
  check_neighbor_contract(t);
  check_distance_contract(t);
  check_profitable_contract(t);
  check_terminal_contract(t);
  check_clone_contract(t);
}

TEST(TopologyProperties, EveryCatalogEntrySatisfiesTheContract) {
  for (const TopologyInfo& info : topology_catalog()) {
    SCOPED_TRACE(info.name);
    const std::unique_ptr<Topology> t = make_topology(info.name, 6, 4);
    ASSERT_NE(t, nullptr);
    run_property_suite(*t);
  }
}

TEST(TopologyProperties, CatalogMetadataMatchesInstances) {
  for (const TopologyInfo& info : topology_catalog()) {
    const std::unique_ptr<Topology> t = make_topology(info.name, 6, 4);
    EXPECT_EQ(t->name(), info.name);
    EXPECT_EQ(t->is_torus(), info.wraps) << info.name;
    EXPECT_EQ(t->concentration(), info.concentration) << info.name;
    EXPECT_FALSE(info.description.empty()) << info.name;
  }
}

// ---------------------------------------------------------------------------
// Registry/factory behaviour.
// ---------------------------------------------------------------------------

TEST(TopoRegistry, KnownNames) {
  EXPECT_TRUE(known_topology("mesh"));
  EXPECT_TRUE(known_topology("torus"));
  EXPECT_TRUE(known_topology("cmesh-4"));
  EXPECT_TRUE(known_topology("cmesh-2"));
  EXPECT_FALSE(known_topology("hypercube"));
  EXPECT_FALSE(known_topology(""));
  EXPECT_FALSE(known_topology("MESH"));  // names are case-sensitive
}

TEST(TopoRegistry, NamesMatchCatalogOrder) {
  const std::vector<std::string> names = topology_names();
  const std::vector<TopologyInfo>& catalog = topology_catalog();
  ASSERT_EQ(names.size(), catalog.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(names[i], catalog[i].name);
}

TEST(TopoRegistry, ParseCmeshSuffix) {
  const TopoSpec spec = parse_topology_spec("cmesh-8");
  EXPECT_EQ(spec.name, "cmesh");
  EXPECT_EQ(spec.params.concentration, 8);
  const TopoSpec plain = parse_topology_spec("torus");
  EXPECT_EQ(plain.name, "torus");
}

TEST(TopoRegistry, MalformedCmeshSuffixIsUnknown) {
  // A suffix that is not one whole decimal int keeps the full name, which
  // no topology is registered under.
  for (const char* name : {"cmesh-4junk", "cmesh-", "cmesh- 4", "cmesh-+4",
                           "cmesh-0x4", "cmesh-99999999999999999999"}) {
    EXPECT_EQ(parse_topology_spec(name).name, name);
    EXPECT_FALSE(known_topology(name)) << name;
    EXPECT_THROW(make_topology(name, 4, 4), InvariantViolation) << name;
  }
}

TEST(TopoRegistry, MakeTopologyBuildsTheRightTypes) {
  const auto mesh = make_topology("mesh", 5, 3);
  EXPECT_EQ(mesh->name(), "mesh");
  EXPECT_FALSE(mesh->is_torus());
  const auto torus = make_topology("torus", 5, 3);
  EXPECT_EQ(torus->name(), "torus");
  EXPECT_TRUE(torus->is_torus());
  const auto cmesh = make_topology("cmesh-2", 5, 3);
  EXPECT_EQ(cmesh->name(), "cmesh-2");
  EXPECT_EQ(cmesh->concentration(), 2);
  EXPECT_EQ(cmesh->num_terminals(), 30);
}

TEST(TopoRegistry, UnknownNameThrows) {
  EXPECT_THROW(make_topology("hypercube", 4, 4), InvariantViolation);
  EXPECT_THROW(make_topology("", 4, 4), InvariantViolation);
}

TEST(TopoRegistry, BadDimensionsThrow) {
  EXPECT_THROW(make_topology("mesh", 0, 4), InvariantViolation);
  EXPECT_THROW(make_topology("torus", 4, -1), InvariantViolation);
}

TEST(TopoRegistry, CmeshConcentrationRange) {
  EXPECT_NO_THROW(make_topology("cmesh-1", 4, 4));
  EXPECT_NO_THROW(make_topology("cmesh-64", 4, 4));
  EXPECT_THROW(make_topology("cmesh-0", 4, 4), InvariantViolation);
  EXPECT_THROW(make_topology("cmesh-65", 4, 4), InvariantViolation);
}

TEST(TopoRegistry, CmeshTerminalMapping) {
  const auto t = make_topology("cmesh-4", 4, 4);
  EXPECT_EQ(t->terminal_router(0), 0);
  EXPECT_EQ(t->terminal_router(3), 0);
  EXPECT_EQ(t->terminal_router(4), 1);
  EXPECT_EQ(t->terminal_of(3, 2), 14);
}

TEST(TopoRegistry, MeshFamilyMatchesConcreteMesh) {
  // The registry "mesh"/"torus" must be the same network Mesh builds.
  const auto reg_mesh = make_topology("mesh", 6, 4);
  const auto reg_torus = make_topology("torus", 6, 4);
  const Mesh mesh(6, 4);
  const Mesh torus(6, 4, /*torus=*/true);
  for (NodeId u = 0; u < mesh.num_nodes(); ++u)
    for (Dir d : kAllDirs) {
      EXPECT_EQ(reg_mesh->neighbor(u, d), mesh.neighbor(u, d));
      EXPECT_EQ(reg_torus->neighbor(u, d), torus.neighbor(u, d));
    }
}

}  // namespace
}  // namespace mr
