// Resistive power-distribution-network model and DC IR-drop solver.
//
// Each rail (VDD and VSS) is a uniform 2-D resistive mesh spanning the die,
// every segment at segment_res_ohm, anchored by the floorplan's periphery
// pads (the Turbo-Eagle floorplan has 37 pads per rail; each pad lands on
// its nearest mesh node through pad_res_ohm). Instance switching currents
// are injected at the nearest mesh node and the resulting node voltages are
// obtained from the linear system
//
//     sum_j g (d_i - d_j) + g_pad,i * d_i = I_i
//
// d_i is the *drop* at node i: VDD loss on the VDD rail, ground bounce on
// the VSS rail -- the same equations apply to both because the floorplan
// places the two pad sets symmetrically.
//
// One solver sits behind solve(): red-black SOR, run serially on the
// calling thread. Every flow solves Experiment::standard's 48x48 mesh
// (2,304 nodes; the scale changes the segment resistance, not the node
// count). Two alternatives were measured on a 4-vCPU host (gate-current
// loads, median of 9) and removed:
//  - geometric W-cycles over a coarsened mesh hierarchy, which used to take
//    over at >= 64x64: SOR solved a 64x64 mesh in 1.8 ms against their
//    3.1 ms, so the switch picked the slower solver at its threshold;
//  - splitting each colour pass into row bands on the rt pool, from 8,192
//    nodes: 4 threads against 1 was a wash at 96x96 (5.8-6.1 against
//    5.5-6.1 ms) and at 128x128 (15.3-16.7 against 15.8-15.9 ms), and paid
//    only from about 200x200 (256x256: 156-158 against 318-388 ms), a size
//    no flow builds.
// The rail pair is the grid's parallelism: the statistical analysis and
// analyze_pattern_ir solve VDD and VSS concurrently. A solve reports honest
// convergence: `converged`, `iterations` and `final_delta_v` on the
// solution, plus the "power.grid_solve_nonconverged" obs counter and a
// stderr warning when the budget runs out.
//
// SOR layout. The operator is built once per grid in a split-colour layout:
// each colour of the red-black mesh (node (ix, iy) has colour (ix + iy) & 1)
// has its own planes of ny + 2 rows by W = nx/2 + 2 slots, and node (ix, iy)
// sits at slot (iy + 1) * W + ix / 2 + 1 of its colour's plane. Every other
// slot -- rows 0 and ny + 1, slot 0 of each row, the slots past a row's
// last node -- is zero, so no node needs an edge test, and a colour pass
// reads only the other colour's plane, with unit stride. Every edge has the
// one mesh conductance g, and an absent boundary edge reads a zero ring
// slot, so it adds g * 0 = +0.0 to the inflow. The planes hold each rail's
// diagonal, pad + the conductances of the node's present edges.
// residual_inf() evaluates the same stencil on the same planes.
//
// SOR kernel. One row kernel sweeps a colour pass two nodes at a time (GCC
// vector types, baseline flags). It keeps the scalar arithmetic and its
// order per node, with no fused multiply-add, and takes an exact max of the
// updates, so drops, iteration counts and final_delta_v are bit-identical
// to the edge-tested scalar kernel. A second, -mavx2 build solved a rail
// pair faster but left the end-to-end sign-off time within noise, so there
// is one build.
//
// Input contract. solve() and residual_inf() take one current per load
// site and throw std::invalid_argument, before any sweep, when the spans
// differ in length or a current or a load position is NaN or infinite. A
// non-finite current would otherwise yield a non-finite map that the
// sweep's max-|update| test could report as converged, and a non-finite
// position would land on node (0, 0).
//
// This is the library's stand-in for the rail analysis the paper runs in
// Cadence SOC Encounter; both the statistical (vector-less) and the dynamic
// (per-pattern) analyses reduce to exactly this windowed-average DC solve.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "layout/floorplan.h"
#include "util/geometry.h"

namespace scap {

struct PowerGridOptions {
  std::uint32_t nx = 48;
  std::uint32_t ny = 48;
  /// Resistance of one mesh segment [ohm]. The default is calibrated so the
  /// reference SOC shows a functional statistical worst IR-drop of a few
  /// percent of VDD, matching the paper's Table 3 regime.
  double segment_res_ohm = 0.35;
  /// Pad contact resistance [ohm].
  double pad_res_ohm = 0.08;
  double tolerance_v = 1e-7;
  /// SOR sweep budget.
  std::uint32_t max_iterations = 20000;
};

struct GridSolution {
  std::uint32_t nx = 0;
  std::uint32_t ny = 0;
  Rect die;
  std::vector<double> drop_v;  ///< row-major node drops [V]
  std::uint32_t iterations = 0;
  /// False when the sweep budget (max_iterations) ran out before the update
  /// delta fell below tolerance_v; such a map may understate the true drops.
  /// Non-converged solves bump the "power.grid_solve_nonconverged" obs
  /// counter and log a warning -- never treat them as clean silently.
  bool converged = false;
  /// Largest node update of the final sweep [V] (the convergence residual).
  double final_delta_v = 0.0;

  double node(std::uint32_t ix, std::uint32_t iy) const {
    return drop_v[iy * nx + ix];
  }
  /// Bilinear sample of the drop at an arbitrary die location.
  double drop_at(Point p) const;
  double worst() const;
  double worst_in(const Rect& r) const;
  double average_in(const Rect& r) const;
};

class PowerGrid {
 public:
  /// Uniform mesh from the options, pads taken from the floorplan. Throws
  /// std::runtime_error for a mesh below 2x2 or a floorplan without a VDD
  /// or a VSS pad (either rail's system would be singular).
  PowerGrid(const Floorplan& fp, PowerGridOptions opt = PowerGridOptions{});

  /// Solve one rail for the given point current injections [A]: amps[i]
  /// flows at where[i]. vdd_rail selects which pad set anchors the mesh.
  /// Throws std::invalid_argument when the spans differ in length or a
  /// current or a position is not finite.
  GridSolution solve(std::span<const Point> where, std::span<const double> amps,
                     bool vdd_rail) const;

  /// Max over the nodes of |I_i - (A d)_i| [A] -- the true equation
  /// residual of a solution, independent of the solver's own stop metric.
  /// Throws std::invalid_argument on bad loads, as solve() does, and on a
  /// drop map of another mesh size.
  double residual_inf(const GridSolution& sol, std::span<const Point> where,
                      std::span<const double> amps, bool vdd_rail) const;

  /// ASCII heat map; cells above alarm_v render '#' (the paper's Figure 3
  /// "red region" at 10% of VDD), with a linear ramp " .:-=+*%@" below.
  static std::string ascii_map(const GridSolution& sol, double alarm_v,
                               std::uint32_t max_cols = 64);

  const PowerGridOptions& options() const { return opt_; }
  const Rect& die() const { return die_; }

 private:
  std::uint32_t node_index(std::uint32_t ix, std::uint32_t iy) const {
    return iy * opt_.nx + ix;
  }
  std::uint32_t nearest_node(Point p) const;
  std::vector<double> gather_currents(std::span<const Point> where,
                                      std::span<const double> amps) const;

  struct SorOperator;

  PowerGridOptions opt_;
  Rect die_;
  /// Immutable after construction; shared so PowerGrid stays copyable.
  std::shared_ptr<const SorOperator> sor_;
};

}  // namespace scap
