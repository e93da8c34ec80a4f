// Table 4 -- CAP vs SCAP for one launch-off-capture pattern.
//
// Paper: one TetraMAX random-fill pattern on clka; STW 8.34 ns against a
// 20 ns tester cycle, so the switching-window power (SCAP) is > 2x the
// cycle-average power (CAP): 118.6 -> 284.3 mW class numbers, and the worst
// average IR-drop measured over the SCAP window roughly doubles vs the CAP
// window (0.128/0.134 V -> ~2x on VDD/VSS).
#include "bench_common.h"

#include "power/dynamic_ir.h"

namespace scap {
namespace {

void print_table4() {
  const Experiment& exp = bench::experiment();
  const auto& profile = bench::conventional_scap();
  const auto& patterns = bench::conventional_flow().patterns;

  // The paper picks a representative high-activity pattern.
  std::size_t pick = 0;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    if (profile[i].num_toggles > profile[pick].num_toggles) pick = i;
  }
  const ScapReport& rep = profile[pick];

  // Dynamic rail solve over the two windows: CAP spreads the charge over the
  // full tester cycle T, SCAP concentrates it in the switching window.
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  DynamicIrBinner binner(exp.soc.netlist, exp.soc.parasitics, *exp.lib);
  analyzer.analyze_into(exp.ctx, patterns.patterns[pick], binner);
  RailCharges cap_window = binner.charges();
  cap_window.window_ns = rep.period_ns;
  const DynamicIrReport ir_cap = analyze_pattern_ir(
      exp.soc.netlist, exp.soc.placement, *exp.lib, exp.soc.floorplan,
      exp.grid, cap_window, &exp.soc.clock_tree, exp.ctx.domain);
  const DynamicIrReport ir_scap = analyze_pattern_ir(
      exp.soc.netlist, exp.soc.placement, *exp.lib, exp.soc.floorplan,
      exp.grid, binner.charges(), &exp.soc.clock_tree, exp.ctx.domain);

  std::printf("pattern %zu of the random-fill clka set: STW %.2f ns, tester "
              "cycle %.0f ns (paper: 8.34 ns / 20 ns)\n\n",
              pick, rep.stw_ns, rep.period_ns);

  TextTable t({"model", "P VDD [mW]", "P VSS [mW]", "worst VDD drop [V]",
               "worst VSS rise [V]"});
  t.add_row({"CAP", TextTable::num(rep.cap_mw(Rail::kVdd), 2),
             TextTable::num(rep.cap_mw(Rail::kVss), 2),
             TextTable::num(ir_cap.worst_vdd_v, 3),
             TextTable::num(ir_cap.worst_vss_v, 3)});
  t.add_row({"SCAP", TextTable::num(rep.scap_mw(Rail::kVdd), 2),
             TextTable::num(rep.scap_mw(Rail::kVss), 2),
             TextTable::num(ir_scap.worst_vdd_v, 3),
             TextTable::num(ir_scap.worst_vss_v, 3)});
  std::printf("%s\n", t.render("Table 4: CAP vs SCAP, one pattern").c_str());

  const double power_ratio = rep.scap_mw(Rail::kVdd) / rep.cap_mw(Rail::kVdd);
  const double ir_ratio = ir_scap.worst_vdd_v / std::max(1e-12, ir_cap.worst_vdd_v);
  std::printf("Shape vs paper: SCAP/CAP power ratio %.2fx (paper >2x);\n"
              "  SCAP-window worst IR-drop / CAP-window: %.2fx (paper ~2x)\n\n",
              power_ratio, ir_ratio);
}

void BM_ScapOnePattern(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  const auto& patterns = bench::conventional_flow().patterns;
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto pa = analyzer.analyze(
        exp.ctx, patterns.patterns[i++ % patterns.size()]);
    benchmark::DoNotOptimize(pa.scap.stw_ns);
  }
}
BENCHMARK(BM_ScapOnePattern)->Unit(benchmark::kMillisecond);

void BM_DynamicIrOnePattern(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  const auto& patterns = bench::conventional_flow().patterns;
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  DynamicIrBinner binner(exp.soc.netlist, exp.soc.parasitics, *exp.lib);
  analyzer.analyze_into(exp.ctx, patterns.patterns[0], binner);
  for (auto _ : state) {
    auto rep = analyze_pattern_ir(exp.soc.netlist, exp.soc.placement,
                                  *exp.lib, exp.soc.floorplan, exp.grid,
                                  binner.charges(), &exp.soc.clock_tree,
                                  exp.ctx.domain);
    benchmark::DoNotOptimize(rep.worst_vdd_v);
  }
}
BENCHMARK(BM_DynamicIrOnePattern)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("table4_cap_vs_scap", "Table 4", "CAP vs SCAP power/IR for one pattern");
  run.phase("table");
  scap::print_table4();
  run.phase("microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
