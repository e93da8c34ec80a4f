// Interconnect parasitic extraction (the library's STAR-RCXT stand-in).
//
// Each net's capacitance is estimated as HPWL * unit wire cap plus the sum of
// the sink pin capacitances; the total is the load seen by the net's driver.
// That per-driver load is the C_i in the paper's CAP/SCAP formulas and the
// load term of the linear delay model.
#pragma once

#include <vector>

#include "layout/placement.h"
#include "netlist/netlist.h"
#include "netlist/tech_library.h"

namespace scap {

/// Routed-wire capacitance per micron, 0.18 fF/um (a typical 180 nm value):
/// the unit cap of every signal net here and of the clock tree's wires.
inline constexpr double kWireCapPfPerUm = 0.00018;

class Parasitics {
 public:
  static Parasitics extract(const Netlist& nl, const Placement& pl,
                            const TechLibrary& lib);

  /// Total capacitive load on the net's driver [pF].
  double net_load_pf(NetId n) const { return net_load_pf_[n]; }
  /// Half-perimeter wirelength of the net [um].
  double net_hpwl_um(NetId n) const { return net_hpwl_um_[n]; }

  /// Load on a gate's output (C_i of the paper).
  double gate_load_pf(const Netlist& nl, GateId g) const {
    return net_load_pf_[nl.gate(g).out];
  }
  /// Load on a flop's Q output.
  double flop_load_pf(const Netlist& nl, FlopId f) const {
    return net_load_pf_[nl.flop(f).q];
  }

  double total_load_pf() const { return total_load_pf_; }
  double total_wirelength_um() const { return total_wirelength_um_; }

 private:
  std::vector<double> net_load_pf_;
  std::vector<double> net_hpwl_um_;
  double total_load_pf_ = 0.0;
  double total_wirelength_um_ = 0.0;
};

}  // namespace scap
