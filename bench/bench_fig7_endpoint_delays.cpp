// Figure 7 -- Per-endpoint path delay with and without IR-drop effects.
//
// Paper: one below-threshold pattern that exercises mostly block B5 is
// re-simulated with every cell delay scaled by its local droop
// (ScaledCellDelay = Delay * (1 + 0.9 * dV)) and clock buffers scaled the
// same way. Observed: Region 1 endpoints slow down by up to ~30% (their
// input cones sit in the B5 droop), Region 2 endpoints *measure faster*
// because their own capture-clock path slowed; non-active endpoints stay 0.
#include "bench_common.h"

#include "util/stats.h"

namespace scap {
namespace {

std::size_t pick_pattern() {
  // Below the threshold, maximal B5 activity: the paper's circled pattern in
  // Figure 6.
  const Experiment& exp = bench::experiment();
  const auto& profile = bench::power_aware_scap();
  const std::size_t hot = Experiment::kHotBlock;
  const double threshold = exp.thresholds.block_mw[hot];
  std::size_t pick = 0;
  double best = -1e18;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const double scap = ScapThresholds::block_scap_mw(profile[i], hot);
    if (scap <= threshold && scap > best) {
      best = scap;
      pick = i;
    }
  }
  return pick;
}

void print_fig7() {
  const Experiment& exp = bench::experiment();
  const std::size_t pick = pick_pattern();
  const IrValidationResult v = validate_pattern_ir(
      exp.soc, *exp.lib, exp.grid, exp.ctx,
      bench::power_aware_flow().patterns.patterns[pick]);

  const std::size_t n = exp.soc.netlist.num_flops();
  bench::print_series("endpoint delay, no IR [ns]", n, [&](std::size_t i) {
    return v.nominal_endpoint_ns[i];
  });
  bench::print_series("endpoint delay, IR-scaled [ns]", n, [&](std::size_t i) {
    return v.scaled_endpoint_ns[i];
  });

  std::size_t active = 0, region1 = 0, region2 = 0, became_inactive = 0;
  double max_increase_pct = 0.0, max_decrease_pct = 0.0;
  RunningStats deltas;
  for (FlopId f = 0; f < n; ++f) {
    const double nom = v.nominal_endpoint_ns[f];
    const double scl = v.scaled_endpoint_ns[f];
    if (nom <= 0.0) continue;
    ++active;
    if (scl <= 0.0) {
      // Hazard activity vanished under scaled delays; not a Region-2 case.
      ++became_inactive;
      continue;
    }
    const double pct = 100.0 * (scl - nom) / nom;
    deltas.add(pct);
    if (scl > nom + 1e-9) {
      ++region1;
      max_increase_pct = std::max(max_increase_pct, pct);
    } else if (scl < nom - 1e-9) {
      ++region2;
      max_decrease_pct = std::min(max_decrease_pct, pct);
    }
  }

  std::printf("\npattern %zu: worst VDD drop %.3f V, worst VSS rise %.3f V, "
              "STW %.2f ns\n",
              pick, v.ir.worst_vdd_v, v.ir.worst_vss_v,
              v.nominal.scap.stw_ns);
  std::printf("active endpoints: %zu of %zu flops\n", active, n);
  std::printf("Region 1 (slower under IR): %zu endpoints, worst +%.1f%% "
              "(paper: up to +30%%)\n",
              region1, max_increase_pct);
  std::printf("Region 2 (measured faster -- capture clock slowed): %zu "
              "endpoints, %.1f%% at most (paper: present)\n",
              region2, max_decrease_pct);
  std::printf("endpoints whose activity vanished under scaling: %zu\n",
              became_inactive);
  std::printf("mean endpoint delay shift: %+.2f%%\n\n", deltas.mean());
}

void BM_IrValidationFlow(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  const Pattern& p = bench::power_aware_flow().patterns.patterns[0];
  for (auto _ : state) {
    auto v = validate_pattern_ir(exp.soc, *exp.lib, exp.grid, exp.ctx, p);
    benchmark::DoNotOptimize(v.ir.worst_vdd_v);
  }
}
BENCHMARK(BM_IrValidationFlow)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("fig7_endpoint_delays", "Figure 7", "endpoint path delays: nominal vs IR-drop-scaled delays");
  run.phase("table");
  scap::print_fig7();
  run.phase("microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
