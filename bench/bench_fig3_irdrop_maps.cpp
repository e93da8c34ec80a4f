// Figure 3 -- Dynamic IR-drop maps for two patterns.
//
// Paper: P1 has very high SCAP (283.5 mW in B5), P2 sits near the threshold
// (190.7 mW); their worst average VDD drops are 0.28 V and 0.19 V, with the
// red (>10% VDD = 0.18 V) region concentrated over B5. We pick P1/P2 the
// same way from our random-fill set and render the rail maps.
#include "bench_common.h"

#include "power/dynamic_ir.h"

namespace scap {
namespace {

DynamicIrReport ir_for_pattern(std::size_t idx) {
  const Experiment& exp = bench::experiment();
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  DynamicIrBinner binner(exp.soc.netlist, exp.soc.parasitics, *exp.lib);
  analyzer.analyze_into(
      exp.ctx, bench::conventional_flow().patterns.patterns[idx], binner);
  return analyze_pattern_ir(exp.soc.netlist, exp.soc.placement, *exp.lib,
                            exp.soc.floorplan, exp.grid, binner.charges(),
                            &exp.soc.clock_tree, exp.ctx.domain);
}

void print_fig3() {
  const Experiment& exp = bench::experiment();
  const auto& profile = bench::conventional_scap();
  const std::size_t hot = Experiment::kHotBlock;
  const double threshold = exp.thresholds.block_mw[hot];

  // P1: highest B5 SCAP. P2: closest to the threshold from below.
  std::size_t p1 = 0, p2 = 0;
  double best_p2 = -1e18;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const double scap = ScapThresholds::block_scap_mw(profile[i], hot);
    if (scap > ScapThresholds::block_scap_mw(profile[p1], hot)) p1 = i;
    if (scap <= threshold && scap > best_p2) {
      best_p2 = scap;
      p2 = i;
    }
  }

  const double alarm = exp.lib->ir_alarm_fraction() * exp.lib->vdd();
  for (auto [name, idx, paper_scap, paper_drop] :
       {std::tuple{"P1 (high SCAP)", p1, 283.5, 0.28},
        std::tuple{"P2 (near threshold)", p2, 190.7, 0.19}}) {
    const double scap = ScapThresholds::block_scap_mw(profile[idx], hot);
    const DynamicIrReport ir = ir_for_pattern(idx);
    std::printf("%s = pattern %zu: B5 SCAP %.1f mW (paper %.1f mW), worst VDD "
                "drop %.3f V (paper %.2f V), worst in B5 %.3f V\n",
                name, idx, scap, paper_scap, ir.worst_vdd_v, paper_drop,
                ir.block_worst_vdd_v[hot]);
    std::printf("VDD-drop map ('#' = above the 10%% VDD alarm of %.2f V):\n%s\n",
                alarm,
                PowerGrid::ascii_map(ir.vdd_solution, alarm, 48).c_str());
  }

  const DynamicIrReport ir1 = ir_for_pattern(p1);
  const DynamicIrReport ir2 = ir_for_pattern(p2);
  std::printf("Shape vs paper: P1 worst drop / P2 worst drop = %.2fx "
              "(paper 0.28/0.19 = 1.47x)\n\n",
              ir1.worst_vdd_v / std::max(1e-12, ir2.worst_vdd_v));
}

void BM_AsciiMap(benchmark::State& state) {
  const DynamicIrReport ir = ir_for_pattern(0);
  for (auto _ : state) {
    auto map = PowerGrid::ascii_map(ir.vdd_solution, 0.18, 48);
    benchmark::DoNotOptimize(map);
  }
}
BENCHMARK(BM_AsciiMap);

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("fig3_irdrop_maps", "Figure 3", "dynamic IR-drop maps for P1 (hot) and P2 (cool)");
  run.phase("table");
  scap::print_fig3();
  run.phase("microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
