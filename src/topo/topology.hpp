// Topology interface (DESIGN.md §10).
//
// Every network the engine can route on is a rectangular grid of routers
// (width × height, row-major dense node ids), with or without wrap links.
// The grid contract and the edge/distance kernel (`neighbor`, `delta`,
// `distance`, `profitable_dirs`) are NON-virtual and inline, driven by
// `width_`, `height_` and `wraps_` alone: the engine's flat-table hot path
// (NodeQueues slabs, shard banding) indexes by `id = row * width + col`,
// and routers and oracles call the kernel once per hop. Concrete
// topologies customise only `name`, `clone` and the terminal mapping
// (concentration).
//
// Columns are numbered west→east and rows south→north, both 0-based; the
// paper's 1-based "column 1..n" convention appears only in printed output.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/assert.hpp"
#include "core/types.hpp"

namespace mr {

/// Signed displacement needed in each dimension to reach `to` from `from`
/// along a shortest path: (east_delta, north_delta). On wrapping
/// topologies the smaller wrap is chosen; an exact tie reports the
/// positive direction and sets the corresponding `*_tie` flag.
struct Delta {
  std::int32_t east = 0;   ///< >0 move east, <0 move west
  std::int32_t north = 0;  ///< >0 move north, <0 move south
  bool east_tie = false;   ///< wrap: both E and W are shortest
  bool north_tie = false;  ///< wrap: both N and S are shortest
};

class Topology {
 public:
  virtual ~Topology() = default;

  /// Registry name of this instance, e.g. "mesh", "torus", "cmesh-4".
  virtual std::string name() const = 0;

  /// Deep copy preserving the dynamic type (Sim stores a clone).
  virtual std::unique_ptr<Topology> clone() const = 0;

  // --- Grid contract (non-virtual: the engine's dense-id hot path
  // depends on this exact mapping for every topology). ---

  std::int32_t width() const { return width_; }
  std::int32_t height() const { return height_; }
  bool is_torus() const { return wraps_; }
  std::int32_t num_nodes() const { return width_ * height_; }

  bool contains(Coord c) const {
    return c.col >= 0 && c.col < width_ && c.row >= 0 && c.row < height_;
  }

  NodeId id_of(Coord c) const {
    MR_REQUIRE(contains(c));
    return c.row * width_ + c.col;
  }
  NodeId id_of(std::int32_t col, std::int32_t row) const {
    return id_of(Coord{col, row});
  }

  /// Row and column of `id`. The row is `id / width` computed as a
  /// multiply and a shift by constants the constructor derives from the
  /// width (exact for every id below 2^31), so a lookup costs no division.
  Coord coord_of(NodeId id) const {
    MR_REQUIRE(id >= 0 && id < num_nodes());
    const auto row = static_cast<std::int32_t>(
        (static_cast<std::uint64_t>(id) * row_mul_) >> row_shift_);
    return Coord{id - row * width_, row};
  }

  /// All node ids, row-major (south row first).
  std::vector<NodeId> all_nodes() const;

  // --- Edge/distance kernel (non-virtual, inline). ---

  /// Neighbour in direction d, or kInvalidNode if no such link (off the
  /// edge of a non-wrapping grid).
  NodeId neighbor(NodeId id, Dir d) const {
    Coord c = coord_of(id);
    switch (d) {
      case Dir::North: c.row += 1; break;
      case Dir::South: c.row -= 1; break;
      case Dir::East: c.col += 1; break;
      case Dir::West: c.col -= 1; break;
    }
    if (wraps_) {
      if (c.col < 0) c.col += width_;
      if (c.col >= width_) c.col -= width_;
      if (c.row < 0) c.row += height_;
      if (c.row >= height_) c.row -= height_;
    } else if (!contains(c)) {
      return kInvalidNode;
    }
    return c.row * width_ + c.col;
  }

  /// Shortest-path displacement from `from` to `to`; see mr::Delta. With
  /// wrap links the smaller wrap is chosen; an exact tie (even dimension,
  /// displacement exactly dim/2) reports the positive direction with the
  /// corresponding `*_tie` flag set, and profitable_dirs() then contains
  /// both directions of that dimension.
  Delta delta(NodeId from, NodeId to) const {
    const Coord a = coord_of(from);
    const Coord b = coord_of(to);
    Delta d;
    d.east = b.col - a.col;
    d.north = b.row - a.row;
    if (wraps_) {
      d.east = shortest_wrap(d.east, width_, d.east_tie);
      d.north = shortest_wrap(d.north, height_, d.north_tie);
    }
    return d;
  }

  /// L1 (shortest-path) distance.
  std::int32_t distance(NodeId from, NodeId to) const {
    const Delta d = delta(from, to);
    return std::abs(d.east) + std::abs(d.north);
  }

  /// Profitable outlinks of a packet at `from` destined for `to`: the
  /// directions that strictly reduce distance (paper §2). Empty iff
  /// from == to.
  DirMask profitable_dirs(NodeId from, NodeId to) const {
    const Delta d = delta(from, to);
    DirMask m = 0;
    if (d.east > 0 || (d.east != 0 && d.east_tie)) m |= dir_bit(Dir::East);
    if (d.east < 0 || (d.east != 0 && d.east_tie)) m |= dir_bit(Dir::West);
    if (d.north > 0 || (d.north != 0 && d.north_tie)) m |= dir_bit(Dir::North);
    if (d.north < 0 || (d.north != 0 && d.north_tie)) m |= dir_bit(Dir::South);
    return m;
  }

  /// True if moving from `from` in direction d strictly reduces the
  /// distance to `to`.
  bool is_profitable(NodeId from, Dir d, NodeId to) const {
    return mask_has(profitable_dirs(from, to), d);
  }

  // --- Terminal mapping (virtual; identity unless concentrated). ---
  //
  // Concentrated topologies attach `concentration()` terminals to each
  // router; terminals inject and eject through the shared router queues.
  // The engine routes between routers only — concentration lives entirely
  // in the traffic layer, which maps terminal ids to router ids before
  // building demands.

  /// Terminals per router (1 unless concentrated).
  virtual std::int32_t concentration() const { return 1; }

  /// Total injection/ejection endpoints.
  std::int32_t num_terminals() const { return num_nodes() * concentration(); }

  /// Router hosting terminal `t`.
  virtual NodeId terminal_router(std::int32_t t) const {
    MR_REQUIRE(t >= 0 && t < num_terminals());
    return t;
  }

  /// Terminal id of slot `slot` on `router`.
  virtual std::int32_t terminal_of(NodeId router, std::int32_t slot) const {
    MR_REQUIRE(router >= 0 && router < num_nodes());
    MR_REQUIRE(slot >= 0 && slot < concentration());
    return router;
  }

 protected:
  Topology(std::int32_t width, std::int32_t height, bool wraps);

  // Copy/move are for concrete subclasses' value semantics only.
  Topology(const Topology&) = default;
  Topology& operator=(const Topology&) = default;

 private:
  /// Shortest signed displacement on a ring of n nodes for a raw column
  /// (or row) difference x in (-n, n). An exact half-ring tie reports the
  /// positive direction and sets `tie`.
  static std::int32_t shortest_wrap(std::int32_t x, std::int32_t n,
                                    bool& tie) {
    const std::int32_t fwd = x < 0 ? x + n : x;  // steps in + direction
    const std::int32_t bwd = n - fwd;            // steps in - direction
    tie = fwd != 0 && fwd == bwd;
    if (fwd == 0) return 0;
    return fwd <= bwd ? fwd : -bwd;
  }

  std::int32_t width_;
  std::int32_t height_;
  bool wraps_;
  /// coord_of's reciprocal of the width: row = (id * row_mul_) >> row_shift_.
  std::uint64_t row_mul_;
  std::uint32_t row_shift_;
};

}  // namespace mr
