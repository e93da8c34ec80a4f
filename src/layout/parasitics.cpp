#include "layout/parasitics.h"

#include <algorithm>

namespace scap {

Parasitics Parasitics::extract(const Netlist& nl, const Placement& pl,
                               const TechLibrary& lib) {
  Parasitics out;
  out.net_load_pf_.assign(nl.num_nets(), 0.0);
  out.net_hpwl_um_.assign(nl.num_nets(), 0.0);

  // Pin capacitance contributions from gate inputs...
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const double pin_cap = lib.timing(nl.gate(g).type).input_cap_pf;
    for (NetId in : nl.gate_inputs(g)) out.net_load_pf_[in] += pin_cap;
  }
  // ...and flop D pins.
  const double dff_pin_cap = lib.timing(CellType::kDff).input_cap_pf;
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    out.net_load_pf_[nl.flop(f).d] += dff_pin_cap;
  }

  // Driver self (diffusion) capacitance.
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    out.net_load_pf_[nl.gate(g).out] += lib.timing(nl.gate(g).type).self_cap_pf;
  }
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    out.net_load_pf_[nl.flop(f).q] += lib.timing(CellType::kDff).self_cap_pf;
  }

  // Wire capacitance from half-perimeter bounding box of all pins.
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const Point drv = pl.net_driver_pos(nl, n);
    double x0 = drv.x, x1 = drv.x, y0 = drv.y, y1 = drv.y;
    auto expand = [&](Point p) {
      x0 = std::min(x0, p.x);
      x1 = std::max(x1, p.x);
      y0 = std::min(y0, p.y);
      y1 = std::max(y1, p.y);
    };
    for (GateId fo : nl.fanout_gates(n)) expand(pl.gate_pos(fo));
    for (FlopId ff : nl.fanout_flops(n)) expand(pl.flop_pos(ff));
    const double hpwl = (x1 - x0) + (y1 - y0);
    out.net_hpwl_um_[n] = hpwl;
    out.net_load_pf_[n] += hpwl * kWireCapPfPerUm;
    out.total_wirelength_um_ += hpwl;
    out.total_load_pf_ += out.net_load_pf_[n];
  }
  return out;
}

}  // namespace scap
