#include "core/experiment.h"

#include "obs/trace.h"

namespace scap {

Experiment Experiment::standard(double scale, std::uint64_t seed) {
  SCAP_TRACE_SCOPE("experiment.build");
  SocConfig cfg = SocConfig::turbo_eagle_scaled(scale);
  cfg.seed = seed;
  const TechLibrary& lib = TechLibrary::generic180();
  SocDesign soc = build_soc(cfg, lib);

  TestContext ctx = TestContext::for_domain(soc.netlist, /*domain=*/0);

  std::vector<TdfFault> all = enumerate_faults(soc.netlist);
  std::vector<TdfFault> collapsed = collapse_faults(soc.netlist, all);

  StatisticalOptions case1;
  case1.window_fraction = 1.0;
  StatisticalOptions case2;
  case2.window_fraction = 0.5;

  // Calibrate the rail network so the functional (Case1) statistical worst
  // IR-drop sits at the paper's few-percent-of-VDD regime. A scaled design
  // draws proportionally less current; physically, its rails would also be
  // proportionally narrower, so the per-segment resistance is scaled until
  // the functional drop hits the target (the solve is linear in both the
  // injected currents and the mesh resistance).
  constexpr double kTargetFunctionalDropFraction = 0.055;
  PowerGridOptions grid_opt;
  PowerGrid grid(soc.floorplan, grid_opt);
  StatisticalReport rep1 = analyze_statistical(
      soc.netlist, soc.placement, soc.parasitics, lib, soc.floorplan, grid,
      soc.config.domain_freq_mhz, &soc.clock_tree, case1);
  const double target_v = kTargetFunctionalDropFraction * lib.vdd();
  if (rep1.chip_worst_vdd_v > 1e-9) {
    const double factor = target_v / rep1.chip_worst_vdd_v;
    // Scale the mesh only; pads stay firmly clamped, which keeps the spatial
    // gradient sharp (the paper's Figure 3 maps are red over B5 and quiet at
    // the periphery).
    grid_opt.segment_res_ohm *= factor;
    grid = PowerGrid(soc.floorplan, grid_opt);
    rep1 = analyze_statistical(soc.netlist, soc.placement, soc.parasitics,
                               lib, soc.floorplan, grid,
                               soc.config.domain_freq_mhz, &soc.clock_tree,
                               case1);
  }
  StatisticalReport rep2 = analyze_statistical(
      soc.netlist, soc.placement, soc.parasitics, lib, soc.floorplan, grid,
      soc.config.domain_freq_mhz, &soc.clock_tree, case2);
  ScapThresholds thr = ScapThresholds::from_statistical(rep2);

  return Experiment{std::move(soc), &lib,           std::move(grid),
                    std::move(ctx), std::move(all), std::move(collapsed),
                    std::move(rep1), std::move(rep2), std::move(thr)};
}

}  // namespace scap
