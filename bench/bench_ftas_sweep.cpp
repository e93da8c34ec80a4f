// Extension -- faster-than-at-speed (FTAS) capture sweep.
//
// The paper's STW observation ("the switching window is roughly half the
// cycle") comes from the authors' companion FTAS framework [20]: capturing
// earlier than the functional period catches small delay defects, but
// IR-drop-induced slowdown then causes good-chip endpoints to miss the
// capture edge -- overkill. This bench sweeps the capture period on one
// pattern and counts endpoints that would fail setup, with nominal timing
// vs IR-scaled timing; the gap between the two curves is the overkill band.
#include "bench_common.h"

namespace scap {
namespace {

void print_ftas() {
  const Experiment& exp = bench::experiment();
  const auto& profile = bench::conventional_scap();

  // Use the loudest pattern, as the IR stress case.
  std::size_t pick = 0;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    if (profile[i].num_toggles > profile[pick].num_toggles) pick = i;
  }
  const IrValidationResult v = validate_pattern_ir(
      exp.soc, *exp.lib, exp.grid, exp.ctx,
      bench::conventional_flow().patterns.patterns[pick]);

  const double functional_period = exp.soc.period_ns(exp.ctx.domain);
  const double setup_ns = 0.10;

  auto failing = [&](std::span<const double> delays, double period) {
    std::size_t n = 0;
    for (double d : delays) {
      if (d > 0.0 && d + setup_ns > period) ++n;
    }
    return n;
  };

  TextTable t({"capture period [ns]", "vs functional", "failing (nominal)",
               "failing (IR-scaled)", "overkill endpoints"});
  double min_pass_nominal = 0.0, min_pass_scaled = 0.0;
  for (double period = functional_period; period >= 0.35 * functional_period;
       period -= 0.05 * functional_period) {
    const std::size_t fn = failing(v.nominal_endpoint_ns, period);
    const std::size_t fs = failing(v.scaled_endpoint_ns, period);
    t.add_row({TextTable::num(period, 2),
               TextTable::num(100.0 * period / functional_period, 0) + "%",
               std::to_string(fn), std::to_string(fs),
               std::to_string(fs > fn ? fs - fn : 0)});
    if (fn == 0) min_pass_nominal = period;
    if (fs == 0) min_pass_scaled = period;
  }
  std::printf("%s\n",
              t.render("FTAS sweep on pattern " + std::to_string(pick) +
                       " (setup " + TextTable::num(setup_ns, 2) + " ns)")
                  .c_str());
  std::printf("fastest clean capture: nominal %.2f ns, with IR-drop %.2f ns\n",
              min_pass_nominal, min_pass_scaled);
  std::printf("-> IR-drop costs %.0f%% of the FTAS margin; testing faster "
              "than %.2f ns would fail good chips.\n\n",
              min_pass_nominal > 0
                  ? 100.0 * (min_pass_scaled - min_pass_nominal) /
                        std::max(1e-9, functional_period - min_pass_nominal)
                  : 0.0,
              min_pass_scaled);
}

void BM_EndpointDelayExtraction(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  SettleTimeTracker settle;
  analyzer.analyze_into(
      exp.ctx, bench::conventional_flow().patterns.patterns[0], settle);
  std::vector<double> arrivals(exp.soc.netlist.num_flops());
  for (FlopId f = 0; f < exp.soc.netlist.num_flops(); ++f) {
    arrivals[f] = exp.soc.clock_tree.nominal_arrival_ns(f);
  }
  for (auto _ : state) {
    auto delays =
        analyzer.endpoint_delays_from_settle(settle.settle(), arrivals);
    benchmark::DoNotOptimize(delays.data());
  }
}
BENCHMARK(BM_EndpointDelayExtraction)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("ftas_sweep", "Extension", "faster-than-at-speed capture sweep under IR-drop");
  run.phase("table");
  scap::print_ftas();
  run.phase("microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
