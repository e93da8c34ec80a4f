// Vector-less statistical power and IR-drop analysis (paper Section 2.2).
//
// Every instance is assumed to toggle with a uniform probability per cycle of
// its clock domain. Case1 averages the resulting current over the full cycle;
// Case2 concentrates the same switching into a window of half the cycle (the
// average switching-time-frame observation from the paper's earlier b19
// experiments), doubling power and current during the window. The per-block
// Case2 power numbers are the SCAP thresholds used to screen test patterns.
#pragma once

#include <span>
#include <vector>

#include "layout/clock_tree.h"
#include "layout/floorplan.h"
#include "layout/parasitics.h"
#include "layout/placement.h"
#include "netlist/netlist.h"
#include "netlist/tech_library.h"
#include "power/power_grid.h"

namespace scap {

struct StatisticalOptions {
  /// Net toggle probability per cycle. Designers typically assume 20% for
  /// functional mode; the paper deliberately uses a pessimistic 30% because
  /// the threshold feeds test-pattern screening.
  double toggle_prob = 0.30;
  /// Fraction of the cycle the switching is concentrated into:
  /// 1.0 = Case1 (full cycle), 0.5 = Case2 (average STW).
  double window_fraction = 1.0;
};

struct StatisticalReport {
  StatisticalOptions options;
  /// Average switching power during the analysis window [mW].
  std::vector<double> block_power_mw;
  double chip_power_mw = 0.0;
  /// Worst average IR-drop inside each block / on the whole die [V].
  std::vector<double> block_worst_vdd_v;
  std::vector<double> block_worst_vss_v;
  double chip_worst_vdd_v = 0.0;
  double chip_worst_vss_v = 0.0;
  GridSolution vdd_solution;
  GridSolution vss_solution;

  /// True only when both rail solves converged; a false report may
  /// understate every IR number above (the solves already bumped
  /// "power.grid_solve_nonconverged" and logged a warning).
  bool rails_converged() const {
    return vdd_solution.converged && vss_solution.converged;
  }
};

/// Clock-tree buffers switch every cycle regardless of data, twice each;
/// pass clock_tree = nullptr to leave the clock current out. Throws
/// std::invalid_argument when domain_freq_mhz has fewer entries than the
/// netlist has clock domains.
StatisticalReport analyze_statistical(
    const Netlist& nl, const Placement& pl, const Parasitics& par,
    const TechLibrary& lib, const Floorplan& fp, const PowerGrid& grid,
    std::span<const double> domain_freq_mhz, const ClockTree* clock_tree,
    const StatisticalOptions& opt);

}  // namespace scap
