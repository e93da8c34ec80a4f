// Per-pattern dynamic IR-drop analysis (paper Section 2.4).
//
// DynamicIrBinner bins the switched charge of one launch-to-capture
// simulation onto its driving instances and rails (rising toggles draw from
// VDD, falling toggles dump into VSS). analyze_pattern_ir turns those
// charges into average currents over the pattern's switching window and
// solves both rails on the resistive grid. The result carries:
//  - worst / per-block IR-drop numbers (Table 4, Figure 3),
//  - a per-gate voltage droop vector (VDD loss + VSS bounce at the gate's
//    location) that drives the delay-scaled re-simulation of Figure 7.
#pragma once

#include <vector>

#include "layout/clock_tree.h"
#include "layout/floorplan.h"
#include "layout/parasitics.h"
#include "layout/placement.h"
#include "netlist/netlist.h"
#include "netlist/tech_library.h"
#include "power/power_grid.h"
#include "sim/toggle_sink.h"

namespace scap {

struct DynamicIrReport {
  double window_ns = 0.0;
  GridSolution vdd_solution;
  GridSolution vss_solution;
  double worst_vdd_v = 0.0;
  double worst_vss_v = 0.0;
  std::vector<double> block_worst_vdd_v;
  std::vector<double> block_avg_vdd_v;
  std::vector<double> block_worst_vss_v;

  /// Per-gate / per-flop local droop [V] = VDD drop + VSS bounce, for the
  /// ScaledCellDelay = Delay * (1 + k_volt * dV) re-simulation.
  std::vector<double> gate_droop_v;
  std::vector<double> flop_droop_v;

  /// Droop at an arbitrary location (used for clock buffers).
  double droop_at(Point p) const {
    return vdd_solution.drop_at(p) + vss_solution.drop_at(p);
  }

  /// True only when both rail solves converged; a false report may
  /// understate every droop number above (the solves already bumped
  /// "power.grid_solve_nonconverged" and logged a warning).
  bool rails_converged() const {
    return vdd_solution.converged && vss_solution.converged;
  }
};

/// Switched charge [pC] of one simulation pass per driving instance and
/// rail, and the window [ns] the analysis averages it over. Vectors are
/// indexed by GateId / FlopId.
struct RailCharges {
  std::vector<double> gate_vdd_pc;
  std::vector<double> gate_vss_pc;
  std::vector<double> flop_vdd_pc;
  std::vector<double> flop_vss_pc;
  double window_ns = 0.0;
};

/// Streaming front half of the analysis: bins the charge of every committed
/// toggle straight off the simulator, in commit order. The window is the
/// pass's switching time window (at least 1 ps). Reuses its vectors across
/// passes.
class DynamicIrBinner final : public ToggleSink {
 public:
  DynamicIrBinner(const Netlist& nl, const Parasitics& par,
                  const TechLibrary& lib)
      : nl_(&nl), par_(&par), vdd_(lib.vdd()) {}

  void on_begin(std::span<const std::uint8_t> initial_net_values) override;
  void on_toggle(NetId net, double t_ns, bool rising) override;
  void on_end(const SimStats& stats) override;

  /// Charges of the most recent pass; valid until the next on_begin.
  const RailCharges& charges() const { return charges_; }

 private:
  const Netlist* nl_;
  const Parasitics* par_;
  double vdd_;
  RailCharges charges_;
};

/// Convert the charges into average rail currents over charges.window_ns,
/// solve both rails on the grid (concurrently on the rt pool; bit-identical
/// at any SCAP_THREADS) and derive the block / per-instance droop views. The
/// active domain's clock-tree buffers add one rise and one fall each; pass
/// clock_tree = nullptr to leave the clock current out. Throws
/// std::invalid_argument when the charge vectors do not match the netlist's
/// gate / flop counts or the window is not positive.
DynamicIrReport analyze_pattern_ir(const Netlist& nl, const Placement& pl,
                                   const TechLibrary& lib, const Floorplan& fp,
                                   const PowerGrid& grid,
                                   const RailCharges& charges,
                                   const ClockTree* clock_tree,
                                   DomainId active_domain);

}  // namespace scap
