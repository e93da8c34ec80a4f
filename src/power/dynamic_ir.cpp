#include "power/dynamic_ir.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/parallel.h"

namespace scap {

void DynamicIrBinner::on_begin(
    std::span<const std::uint8_t> /*initial_net_values*/) {
  charges_.window_ns = 0.0;
  charges_.gate_vdd_pc.assign(nl_->num_gates(), 0.0);
  charges_.gate_vss_pc.assign(nl_->num_gates(), 0.0);
  charges_.flop_vdd_pc.assign(nl_->num_flops(), 0.0);
  charges_.flop_vss_pc.assign(nl_->num_flops(), 0.0);
}

void DynamicIrBinner::on_toggle(NetId net, double /*t_ns*/, bool rising) {
  const double q_pc = par_->net_load_pf(net) * vdd_;
  const Net& nr = nl_->net(net);
  if (nr.driver_kind == DriverKind::kGate) {
    (rising ? charges_.gate_vdd_pc : charges_.gate_vss_pc)[nr.driver] +=
        q_pc;
  } else if (nr.driver_kind == DriverKind::kFlop) {
    (rising ? charges_.flop_vdd_pc : charges_.flop_vss_pc)[nr.driver] +=
        q_pc;
  }
}

void DynamicIrBinner::on_end(const SimStats& stats) {
  charges_.window_ns = std::max(stats.stw_ns(), 1e-3);
}

DynamicIrReport analyze_pattern_ir(const Netlist& nl, const Placement& pl,
                                   const TechLibrary& lib, const Floorplan& fp,
                                   const PowerGrid& grid,
                                   const RailCharges& charges,
                                   const ClockTree* clock_tree,
                                   DomainId active_domain) {
  SCAP_TRACE_SCOPE("power.dynamic_ir");
  if (charges.gate_vdd_pc.size() != nl.num_gates() ||
      charges.gate_vss_pc.size() != nl.num_gates() ||
      charges.flop_vdd_pc.size() != nl.num_flops() ||
      charges.flop_vss_pc.size() != nl.num_flops() ||
      !(charges.window_ns > 0.0)) {
    throw std::invalid_argument("analyze_pattern_ir: malformed rail charges");
  }
  DynamicIrReport rep;
  rep.window_ns = charges.window_ns;

  // Convert to average currents over the window: pC / ns == mA -> A.
  std::vector<Point> where;
  std::vector<double> vdd_amps;
  std::vector<double> vss_amps;
  where.reserve(nl.num_gates() + nl.num_flops() + 256);
  const double to_amps = 1e-3 / rep.window_ns;  // (pC -> mA) -> A
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (charges.gate_vdd_pc[g] == 0.0 && charges.gate_vss_pc[g] == 0.0) {
      continue;
    }
    where.push_back(pl.gate_pos(g));
    vdd_amps.push_back(charges.gate_vdd_pc[g] * to_amps);
    vss_amps.push_back(charges.gate_vss_pc[g] * to_amps);
  }
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    if (charges.flop_vdd_pc[f] == 0.0 && charges.flop_vss_pc[f] == 0.0) {
      continue;
    }
    where.push_back(pl.flop_pos(f));
    vdd_amps.push_back(charges.flop_vdd_pc[f] * to_amps);
    vss_amps.push_back(charges.flop_vss_pc[f] * to_amps);
  }
  if (clock_tree != nullptr) {
    for (const ClockBuffer& b : clock_tree->buffers()) {
      if (b.domain != active_domain) continue;
      // One rise and one fall per launch-capture window.
      const double q_pc = b.load_pf * lib.vdd();
      where.push_back(b.pos);
      vdd_amps.push_back(q_pc * to_amps);
      vss_amps.push_back(q_pc * to_amps);
    }
  }

  // The two rails are independent solves over the same injection sites, as
  // in analyze_statistical: run them as a pair of rt tasks. Each writes only
  // its own GridSolution, so the pairing cannot perturb either result.
  rt::parallel_invoke(
      [&] { rep.vdd_solution = grid.solve(where, vdd_amps, /*vdd_rail=*/true); },
      [&] { rep.vss_solution = grid.solve(where, vss_amps, /*vdd_rail=*/false); });
  rep.worst_vdd_v = rep.vdd_solution.worst();
  rep.worst_vss_v = rep.vss_solution.worst();

  rep.block_worst_vdd_v.resize(nl.block_count());
  rep.block_avg_vdd_v.resize(nl.block_count());
  rep.block_worst_vss_v.resize(nl.block_count());
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    const Rect r = b < fp.block_count() ? fp.block(b).rect : fp.die();
    rep.block_worst_vdd_v[b] = rep.vdd_solution.worst_in(r);
    rep.block_avg_vdd_v[b] = rep.vdd_solution.average_in(r);
    rep.block_worst_vss_v[b] = rep.vss_solution.worst_in(r);
  }

  rep.gate_droop_v.resize(nl.num_gates());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    rep.gate_droop_v[g] = rep.droop_at(pl.gate_pos(g));
  }
  rep.flop_droop_v.resize(nl.num_flops());
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    rep.flop_droop_v[f] = rep.droop_at(pl.flop_pos(f));
  }
  obs::count("power.pattern_ir_reports");
  obs::count("power.grid_solves", 2);  // one per rail
  obs::observe("power.worst_vdd_v", rep.worst_vdd_v);
  return rep;
}

}  // namespace scap
