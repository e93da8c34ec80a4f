// Figure 2 -- SCAP per pattern in block B5 for the conventional random-fill
// transition-fault pattern set (clka domain).
//
// Paper: 5846 patterns; a large share (~2253, 39%) exceed the 204 mW block-B5
// threshold derived from the Case2 statistical analysis. That is the
// motivation for the power-aware flow: random fill maximizes fortuitous
// detection and, with it, switching activity in the hot block.
#include "bench_common.h"

#include "util/stats.h"

namespace scap {
namespace {

void print_fig2() {
  const Experiment& exp = bench::experiment();
  const auto& profile = bench::conventional_scap();
  const std::size_t hot = Experiment::kHotBlock;
  const double threshold = exp.thresholds.block_mw[hot];

  bench::print_series("B5 SCAP per pattern [mW]", profile.size(),
                      [&](std::size_t i) {
                        return ScapThresholds::block_scap_mw(profile[i], hot);
                      });

  const std::size_t viol = exp.thresholds.count_violations(profile, hot);
  RunningStats stats;
  for (const auto& rep : profile) {
    stats.add(ScapThresholds::block_scap_mw(rep, hot));
  }
  std::printf("\npatterns: %zu   B5 threshold: %.1f mW\n", profile.size(),
              threshold);
  std::printf("B5 SCAP: mean %.1f mW, max %.1f mW\n", stats.mean(),
              stats.max());
  std::printf("patterns above threshold: %zu / %zu (%.1f%%)\n", viol,
              profile.size(),
              100.0 * static_cast<double>(viol) /
                  static_cast<double>(profile.size()));
  std::printf("paper: 2253 / 5846 (38.5%%) above the 204 mW threshold\n");
  const AtpgStats& cov = bench::conventional_flow().stats;
  std::printf("coverage of the set: %.2f%% fault coverage, %.2f%% test "
              "coverage, %zu untestable, %zu aborted\n\n",
              100.0 * cov.fault_coverage(), 100.0 * cov.test_coverage(),
              cov.untestable, cov.aborted);
}

void BM_ScapProfileChunk(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  const auto& patterns = bench::conventional_flow().patterns;
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t i = 0; i < 8 && i < patterns.size(); ++i) {
      sum += analyzer.analyze(exp.ctx, patterns.patterns[i]).scap.stw_ns;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ScapProfileChunk)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("fig2_scap_randomfill", "Figure 2", "per-pattern SCAP in B5, conventional random-fill set");
  run.phase("table");
  scap::print_fig2();
  run.phase("microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
