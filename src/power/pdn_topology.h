// Irregular power-distribution-network topology on a rectangular node
// lattice.
//
// The uniform mesh the solver started with is one point in a much larger
// design space: real PDNs (SRAM-PG, arXiv:2404.05260) have per-edge metal
// widths (hence per-edge conductances), punched-out regions where macros or
// keep-outs remove the mesh entirely, and many discrete current-source
// loads. PdnTopology is the shared *problem statement* for all of that: a
// node lattice with
//
//  - per-edge conductances g_h / g_v [S] (0 = edge absent),
//  - an active mask (inactive nodes are voids: no equations, drop == 0),
//  - per-node pad conductances for both rails,
//  - a deterministic nearest-active snap map used to land point injections
//    that fall inside a void onto the surviving mesh.
//
// The production SOR solver and the src/ref oracle consume the same
// finalized topology, so the two stay independent while agreeing on what
// problem they are solving. finalize() establishes the invariants both rely
// on:
//
//  - edges incident to an inactive node carry g == 0;
//  - every active node belongs to a component (over g > 0 edges) that is
//    anchored by at least one VDD pad AND one VSS pad -- components that
//    cannot reach both rails are deactivated (their DC system is singular);
//  - snap[] maps every lattice node to the nearest active node (grid
//    distance, deterministic tie-break), identity on active nodes.
#pragma once

#include <cstdint>
#include <vector>

#include "layout/floorplan.h"
#include "util/geometry.h"

namespace scap {

struct PowerGridOptions;

struct PdnTopology {
  std::uint32_t nx = 0;
  std::uint32_t ny = 0;
  /// Horizontal edge (ix,iy)-(ix+1,iy): g_h[iy * (nx-1) + ix], [S].
  std::vector<double> g_h;
  /// Vertical edge (ix,iy)-(ix,iy+1): g_v[iy * nx + ix], [S].
  std::vector<double> g_v;
  /// 1 = node exists, 0 = void. Row-major nx*ny like GridSolution.
  std::vector<std::uint8_t> active;
  std::vector<double> vdd_pad_g;  ///< per-node pad conductance [S]
  std::vector<double> vss_pad_g;
  /// node -> nearest active node (self when active). Built by finalize().
  std::vector<std::uint32_t> snap;
  std::size_t active_nodes = 0;

  /// Fully-connected uniform mesh with every edge at `gseg` siemens.
  static PdnTopology uniform(std::uint32_t nx, std::uint32_t ny, double gseg);

  std::uint32_t node(std::uint32_t ix, std::uint32_t iy) const {
    return iy * nx + ix;
  }
  bool is_active(std::uint32_t ix, std::uint32_t iy) const {
    return active[node(ix, iy)] != 0;
  }
  double edge_h(std::uint32_t ix, std::uint32_t iy) const {
    return g_h[iy * (nx - 1) + ix];
  }
  double edge_v(std::uint32_t ix, std::uint32_t iy) const {
    return g_v[iy * nx + ix];
  }

  /// Deactivate the inclusive node rectangle [x0,x1] x [y0,y1] (clamped).
  void punch_void(std::uint32_t x0, std::uint32_t y0, std::uint32_t x1,
                  std::uint32_t y1);
  /// Scale every edge by an independent uniform factor in [1-frac, 1+frac]
  /// (frac clamped to [0, 0.95] so conductances stay positive). Pure
  /// function of (topology shape, frac, seed).
  void jitter_edges(double frac, std::uint64_t seed);
  /// Add pad conductance at an explicit node for one rail.
  void add_pad(std::uint32_t ix, std::uint32_t iy, bool is_vdd, double g);
  /// Add pad conductance at the lattice node nearest to a die location
  /// (same rounding as PowerGrid's injection snapping).
  void add_pad_at(const Rect& die, Point p, bool is_vdd, double g);

  /// Establish the solver invariants (see file comment). Idempotent.
  /// Throws std::runtime_error if no active node survives.
  void finalize();
};

/// The topology the fuzzer and the irregular-mesh tests share: a uniform
/// mesh from `opt` with the floorplan's pads, `voids` pseudo-random interior
/// rectangles punched out and per-edge jitter of `jitter_frac` applied.
/// Pure function of its arguments (independent Rng streams per feature, so
/// voids = 0 / jitter = 0 reproduce the legacy uniform mesh exactly).
PdnTopology make_fuzz_topology(const Floorplan& fp, const PowerGridOptions& opt,
                               std::size_t voids, double jitter_frac,
                               std::uint64_t seed);

}  // namespace scap
