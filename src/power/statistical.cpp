#include "power/statistical.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/activity.h"
#include "rt/parallel.h"

namespace scap {

StatisticalReport analyze_statistical(
    const Netlist& nl, const Placement& pl, const Parasitics& par,
    const TechLibrary& lib, const Floorplan& fp, const PowerGrid& grid,
    std::span<const double> domain_freq_mhz, const ClockTree* clock_tree,
    const StatisticalOptions& opt) {
  SCAP_TRACE_SCOPE("power.statistical");
  if (domain_freq_mhz.size() < nl.domain_count()) {
    throw std::invalid_argument(
        "analyze_statistical: fewer domain frequencies than clock domains");
  }

  StatisticalReport rep;
  rep.options = opt;
  rep.block_power_mw.assign(nl.block_count(), 0.0);

  std::vector<Point> where;
  std::vector<double> vdd_amps;
  std::vector<double> vss_amps;
  where.reserve(nl.num_gates() + nl.num_flops());
  vdd_amps.reserve(where.capacity());
  vss_amps.reserve(where.capacity());

  const double vdd = lib.vdd();
  const double wf = opt.window_fraction;

  // P_mw = tp * f_MHz * C_pF * VDD^2 * 1e-3 / window_fraction.
  // Rail current: half the toggles rise (VDD), half fall (VSS):
  // I_A = 0.5 * tp * f_Hz * C_F * VDD / window_fraction.
  auto account = [&](Point pos, BlockId block, double c_pf, double f_mhz,
                     double toggles_per_cycle) {
    const double p_mw = toggles_per_cycle * f_mhz * c_pf * vdd * vdd * 1e-3 / wf;
    rep.chip_power_mw += p_mw;
    if (block < rep.block_power_mw.size()) rep.block_power_mw[block] += p_mw;
    const double i_a =
        0.5 * toggles_per_cycle * (f_mhz * 1e6) * (c_pf * 1e-12) * vdd / wf;
    where.push_back(pos);
    vdd_amps.push_back(i_a);
    vss_amps.push_back(i_a);
  };

  const std::vector<DomainId> gate_domain = assign_gate_domains(nl);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    account(pl.gate_pos(g), nl.gate(g).block, par.gate_load_pf(nl, g),
            domain_freq_mhz[gate_domain[g]], opt.toggle_prob);
  }
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    const Flop& fr = nl.flop(f);
    account(pl.flop_pos(f), fr.block, par.flop_load_pf(nl, f),
            domain_freq_mhz[fr.domain], opt.toggle_prob);
  }
  if (clock_tree != nullptr) {
    for (const ClockBuffer& b : clock_tree->buffers()) {
      const std::size_t blk = fp.block_at(b.pos);
      account(b.pos,
              blk < nl.block_count() ? static_cast<BlockId>(blk)
                                     : static_cast<BlockId>(0),
              b.load_pf, domain_freq_mhz[b.domain], /*toggles_per_cycle=*/2.0);
    }
  }

  // The two rails are independent linear solves over the same injection
  // sites; run them as a pair of rt tasks. Each solve writes only its own
  // GridSolution, so the pairing cannot perturb either result.
  rt::parallel_invoke(
      [&] { rep.vdd_solution = grid.solve(where, vdd_amps, /*vdd_rail=*/true); },
      [&] { rep.vss_solution = grid.solve(where, vss_amps, /*vdd_rail=*/false); });

  rep.block_worst_vdd_v.resize(nl.block_count());
  rep.block_worst_vss_v.resize(nl.block_count());
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    const Rect r = b < fp.block_count() ? fp.block(b).rect : fp.die();
    rep.block_worst_vdd_v[b] = rep.vdd_solution.worst_in(r);
    rep.block_worst_vss_v[b] = rep.vss_solution.worst_in(r);
  }
  rep.chip_worst_vdd_v = rep.vdd_solution.worst();
  rep.chip_worst_vss_v = rep.vss_solution.worst();
  obs::count("power.statistical_runs");
  obs::count("power.grid_solves", 2);  // one per rail
  return rep;
}

}  // namespace scap
