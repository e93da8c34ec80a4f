#include "sim/scap.h"

#include "obs/metrics.h"

namespace scap {

ScapCalculator::ScapCalculator(const Netlist& nl, const Parasitics& par,
                               const TechLibrary& lib)
    : nl_(&nl), lib_(&lib) {
  net_cap_pf_.resize(nl.num_nets());
  net_block_.resize(nl.num_nets());
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    net_cap_pf_[n] = par.net_load_pf(n);
    const Net& nr = nl.net(n);
    switch (nr.driver_kind) {
      case DriverKind::kGate:
        net_block_[n] = nl.gate(nr.driver).block;
        break;
      case DriverKind::kFlop:
        net_block_[n] = nl.flop(nr.driver).block;
        break;
      default:
        net_block_[n] = 0;
        break;
    }
  }
}

void ScapAccumulator::on_begin(
    std::span<const std::uint8_t> /*initial_net_values*/) {
  report_.stw_ns = 0.0;
  report_.num_toggles = 0;
  report_.vdd_energy_pj.assign(calc_->nl_->block_count(), 0.0);
  report_.vss_energy_pj.assign(calc_->nl_->block_count(), 0.0);
  report_.vdd_energy_total_pj = 0.0;
  report_.vss_energy_total_pj = 0.0;
}

void ScapAccumulator::on_toggle(NetId net, double /*t_ns*/, bool rising) {
  const double e = calc_->lib_->toggle_energy_pj(calc_->net_cap_pf_[net]);
  const BlockId b = calc_->net_block_[net];
  if (rising) {
    report_.vdd_energy_pj[b] += e;
    report_.vdd_energy_total_pj += e;
  } else {
    report_.vss_energy_pj[b] += e;
    report_.vss_energy_total_pj += e;
  }
}

void ScapAccumulator::on_end(const SimStats& stats) {
  report_.stw_ns = stats.stw_ns();
  report_.num_toggles = stats.num_toggles;
  obs::count("scap.computes");
  obs::observe("scap.stw_ns", report_.stw_ns);
  obs::observe("scap.vdd_scap_mw", report_.scap_mw(Rail::kVdd));
}

}  // namespace scap
