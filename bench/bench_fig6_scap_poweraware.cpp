// Figure 6 -- SCAP per pattern in B5 for the NEW (power-aware) pattern set.
//
// Paper: 6490 clka patterns. The prefix (~4000 patterns, Steps 1-2 targeting
// B1-B4 and B6) shows low and nearly constant B5 SCAP because the fill keeps
// B5 quiet; a burst appears when Step 3 finally targets B5's own faults (the
// greedy ATPG is power-unaware within a block); only ~57 patterns stay above
// the threshold vs 2253 for random fill, at ~+8-11% pattern count.
#include "bench_common.h"

#include "atpg/quiet_state.h"
#include "util/stats.h"

namespace scap {
namespace {

void print_fig6() {
  const Experiment& exp = bench::experiment();
  const auto& profile = bench::power_aware_scap();
  const FlowResult& flow = bench::power_aware_flow();
  const std::size_t hot = Experiment::kHotBlock;
  const double threshold = exp.thresholds.block_mw[hot];

  bench::print_series("B5 SCAP per pattern [mW]", profile.size(),
                      [&](std::size_t i) {
                        return ScapThresholds::block_scap_mw(profile[i], hot);
                      });

  std::printf("\nstep starts: ");
  for (std::size_t s : flow.step_start) std::printf("%zu ", s);
  std::printf("(B5 targeted from pattern %zu on)\n", flow.step_start[2]);

  // Quiet prefix vs burst statistics.
  RunningStats prefix, burst;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    (i < flow.step_start[2] ? prefix : burst)
        .add(ScapThresholds::block_scap_mw(profile[i], hot));
  }
  std::printf("B5 SCAP during steps 1-2: mean %.1f mW (max %.1f); during "
              "step 3: mean %.1f mW (max %.1f)\n",
              prefix.mean(), prefix.max(), burst.mean(), burst.max());

  const std::size_t viol = exp.thresholds.count_violations(profile, hot);
  const auto& conv_profile = bench::conventional_scap();
  const std::size_t conv_viol =
      exp.thresholds.count_violations(conv_profile, hot);
  std::printf("patterns above the %.1f mW threshold: %zu / %zu (%.1f%%)  "
              "[conventional: %zu / %zu]\n",
              threshold, viol, profile.size(),
              100.0 * static_cast<double>(viol) /
                  static_cast<double>(profile.size()),
              conv_viol, conv_profile.size());
  std::printf("paper: 57 / 6490 (0.9%%) vs 2253 / 5846 for random fill, at "
              "+8%% pattern count\n");
  std::printf("coverage of the set: %.2f%% fault coverage, %.2f%% test "
              "coverage, %zu untestable, %zu aborted\n\n",
              100.0 * flow.stats.fault_coverage(),
              100.0 * flow.stats.test_coverage(), flow.stats.untestable,
              flow.stats.aborted);
}

void BM_QuietStateSearch(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  for (auto _ : state) {
    auto qs = compute_quiet_state(exp.soc.netlist, exp.ctx);
    benchmark::DoNotOptimize(qs.residual_launches);
  }
}
BENCHMARK(BM_QuietStateSearch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("fig6_scap_poweraware", "Figure 6", "per-pattern SCAP in B5, power-aware stepwise set");
  run.phase("table");
  scap::print_fig6();
  run.phase("microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
