// Figure 4 -- Test-coverage curves: conventional ATPG vs the new stepwise
// pattern-generation procedure.
//
// Paper: the stepwise flow converges more slowly (quiet fill forfeits some
// fortuitous detection, and blocks are targeted one subset at a time) and
// lands at the same final coverage with ~644 extra patterns (5846 -> 6490,
// about +11% on clka).
#include "bench_common.h"

namespace scap {
namespace {

void print_fig4() {
  const FlowResult& conv = bench::conventional_flow();
  const FlowResult& pa = bench::power_aware_flow();

  const auto conv_curve = conv.coverage_curve();
  const auto pa_curve = pa.coverage_curve();
  bench::print_series("conventional fault coverage [%]", conv_curve.size(),
                      [&](std::size_t i) { return 100.0 * conv_curve[i]; });
  bench::print_series("power-aware fault coverage [%]", pa_curve.size(),
                      [&](std::size_t i) { return 100.0 * pa_curve[i]; });

  TextTable t({"flow", "patterns", "fault coverage", "test coverage",
               "untestable", "aborted"});
  t.add_row({"conventional (random-fill)", std::to_string(conv.patterns.size()),
             TextTable::num(100.0 * conv.stats.fault_coverage(), 2) + "%",
             TextTable::num(100.0 * conv.stats.test_coverage(), 2) + "%",
             std::to_string(conv.stats.untestable),
             std::to_string(conv.stats.aborted)});
  t.add_row({"stepwise power-aware", std::to_string(pa.patterns.size()),
             TextTable::num(100.0 * pa.stats.fault_coverage(), 2) + "%",
             TextTable::num(100.0 * pa.stats.test_coverage(), 2) + "%",
             std::to_string(pa.stats.untestable),
             std::to_string(pa.stats.aborted)});
  std::printf("%s\n", t.render("Figure 4: final coverage comparison").c_str());

  const double extra =
      100.0 *
      (static_cast<double>(pa.patterns.size()) /
           static_cast<double>(conv.patterns.size()) -
       1.0);
  std::printf("pattern count increase: %+.1f%% (paper: +644 patterns = "
              "+11.0%% on clka)\n",
              extra);
  std::printf("coverage delta at end: %+.2f points fault coverage, %+.2f "
              "points test coverage (paper: matching final coverage)\n",
              100.0 * (pa.stats.fault_coverage() - conv.stats.fault_coverage()),
              100.0 * (pa.stats.test_coverage() - conv.stats.test_coverage()));
  std::printf("step starts (pattern index): ");
  for (std::size_t s : pa.step_start) std::printf("%zu ", s);
  std::printf(" (Step1: B1-B4, Step2: B6, Step3: B5)\n\n");
}

void BM_PodemOneFault(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  Podem podem(exp.soc.netlist, exp.ctx, PodemOptions{32});
  std::size_t i = 0;
  for (auto _ : state) {
    TestCube cube;
    auto st = podem.generate(exp.faults[i++ % exp.faults.size()], cube);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_PodemOneFault);

void BM_FaultSimBatch(benchmark::State& state) {
  // One ATPG fault-dropping step: grade a 64-pattern batch against 256
  // faults (the engine's flush, good-frame settle included).
  const Experiment& exp = bench::experiment();
  FaultSimulator fsim(exp.soc.netlist, exp.ctx);
  fsim.set_batch_words(1);
  const auto& patterns = bench::conventional_flow().patterns.patterns;
  const std::span<const Pattern> batch(
      patterns.data(), std::min<std::size_t>(64, patterns.size()));
  const std::span<const TdfFault> faults(
      exp.faults.data(), std::min<std::size_t>(256, exp.faults.size()));
  for (auto _ : state) {
    const auto first = fsim.grade(batch, faults);
    benchmark::DoNotOptimize(first.data());
  }
}
BENCHMARK(BM_FaultSimBatch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("fig4_coverage_curves", "Figure 4", "coverage curves: conventional vs power-aware");
  run.phase("table");
  scap::print_fig4();
  run.phase("microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
