// Price of the differential oracle: each optimized kernel benchmarked next
// to its naive reference model (ref/ref_models.h), plus the end-to-end cost
// of one fuzz scenario. The ratios documented here are why scap_fuzz keeps
// its scenarios tiny -- the references trade every optimization (workspace
// reuse, 64-way words, red-black SOR) for obviousness, and this bench keeps
// an eye on that gap staying affordable for CI smoke runs.
#include "bench_common.h"

#include <benchmark/benchmark.h>

#include <vector>

#include "atpg/fault_sim.h"
#include "ref/fuzz.h"
#include "ref/ref_models.h"
#include "ref/scenario.h"
#include "ref/trace.h"
#include "sim/scap.h"
#include "util/rng.h"

namespace scap {
namespace {

/// One analyzed pattern on the canonical experiment, shared by the sim/scap
/// pairs so both sides replay identical work.
struct RefRig {
  const Experiment& exp = bench::experiment();
  const TechLibrary& lib = *exp.lib;
  DelayModel dm{exp.soc.netlist, lib, exp.soc.parasitics};
  PatternAnalyzer analyzer{exp.soc, lib};
  Pattern pattern;
  ref::SimTrace trace;  ///< the production pass, recorded
  std::vector<std::uint8_t> frame1;
  std::vector<Stimulus> stimuli;

  RefRig() {
    Rng rng(2007);
    pattern.s1.resize(exp.soc.netlist.num_flops());
    for (auto& b : pattern.s1) b = static_cast<std::uint8_t>(rng.below(2));
    ref::TraceRecorder recorder;
    analyzer.analyze_into(exp.ctx, pattern, recorder, &dm);
    trace = recorder.take();
    frame1.assign(analyzer.frame1().begin(), analyzer.frame1().end());
    stimuli.assign(analyzer.stimuli().begin(), analyzer.stimuli().end());
  }

  double period_ns() const { return exp.soc.config.tester_period_ns; }

  static const RefRig& get() {
    static const RefRig* rig = new RefRig();
    return *rig;
  }
};

void BM_EventSimOptimized(benchmark::State& state) {
  const RefRig& rig = RefRig::get();
  PatternAnalyzer analyzer(rig.exp.soc, rig.lib);
  for (auto _ : state) {
    const auto pa = analyzer.analyze(rig.exp.ctx, rig.pattern, &rig.dm);
    benchmark::DoNotOptimize(pa.scap.num_toggles);
  }
}
BENCHMARK(BM_EventSimOptimized)->Unit(benchmark::kMillisecond);

void BM_EventSimReference(benchmark::State& state) {
  const RefRig& rig = RefRig::get();
  const ref::EventSimRef rsim(rig.exp.soc.netlist, rig.dm);
  for (auto _ : state) {
    const ref::SimTrace rt = rsim.run(rig.frame1, rig.stimuli);
    benchmark::DoNotOptimize(rt.num_events_processed);
  }
}
BENCHMARK(BM_EventSimReference)->Unit(benchmark::kMillisecond);

/// The recorded toggles replayed through the streaming accumulator: the
/// accounting cost alone, without the simulation that feeds it.
void BM_ScapOptimized(benchmark::State& state) {
  const RefRig& rig = RefRig::get();
  ScapCalculator calc(rig.exp.soc.netlist, rig.exp.soc.parasitics, rig.lib);
  ScapAccumulator acc(calc, rig.period_ns());
  SimStats stats;
  stats.num_toggles = rig.trace.toggles.size();
  stats.first_toggle_ns = rig.trace.first_toggle_ns;
  stats.last_toggle_ns = rig.trace.last_toggle_ns;
  for (auto _ : state) {
    acc.on_begin(rig.frame1);
    for (const ref::ToggleEvent& t : rig.trace.toggles) {
      acc.on_toggle(t.net, t.t_ns, t.rising);
    }
    acc.on_end(stats);
    benchmark::DoNotOptimize(acc.report().vdd_energy_total_pj);
  }
}
BENCHMARK(BM_ScapOptimized)->Unit(benchmark::kMillisecond);

void BM_ScapReference(benchmark::State& state) {
  const RefRig& rig = RefRig::get();
  for (auto _ : state) {
    const ScapReport rep =
        ref::scap_ref(rig.exp.soc.netlist, rig.exp.soc.parasitics, rig.lib,
                      rig.trace, rig.period_ns());
    benchmark::DoNotOptimize(rep.vdd_energy_total_pj);
  }
}
BENCHMARK(BM_ScapReference)->Unit(benchmark::kMillisecond);

/// Word-parallel grade vs one-fault-at-a-time fixpoint on the same sample.
/// The gap here (two orders of magnitude) is the whole reason the optimized
/// fault simulator exists; keep the sample small so the reference side stays
/// in benchmark territory.
struct GradeRig {
  const Experiment& exp = bench::experiment();
  std::vector<TdfFault> sample;
  std::vector<Pattern> patterns;

  GradeRig() {
    Rng rng(7);
    std::vector<std::size_t> idx(exp.faults.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    rng.shuffle(idx);
    for (std::size_t k = 0; k < std::min<std::size_t>(24, idx.size()); ++k) {
      sample.push_back(exp.faults[idx[k]]);
    }
    patterns.resize(4);
    for (auto& p : patterns) {
      p.s1.resize(exp.ctx.num_vars());
      for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
    }
  }

  static const GradeRig& get() {
    static const GradeRig* rig = new GradeRig();
    return *rig;
  }
};

void BM_FaultGradeOptimized(benchmark::State& state) {
  const GradeRig& rig = GradeRig::get();
  FaultSimulator fsim(rig.exp.soc.netlist, rig.exp.ctx);
  for (auto _ : state) {
    const auto first = fsim.grade(rig.patterns, rig.sample);
    benchmark::DoNotOptimize(first.data());
  }
}
BENCHMARK(BM_FaultGradeOptimized)->Unit(benchmark::kMillisecond);

void BM_FaultGradeReference(benchmark::State& state) {
  const GradeRig& rig = GradeRig::get();
  for (auto _ : state) {
    const auto first = ref::fault_grade_ref(rig.exp.soc.netlist, rig.exp.ctx,
                                            rig.patterns, rig.sample);
    benchmark::DoNotOptimize(first.data());
  }
}
BENCHMARK(BM_FaultGradeReference)->Unit(benchmark::kMillisecond);

void BM_GridOptimized(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  PowerGridOptions opt;
  opt.nx = 16;
  opt.ny = 16;
  const PowerGrid grid(exp.soc.floorplan, opt);
  const Point p{exp.soc.floorplan.die().x1 / 2.0,
                exp.soc.floorplan.die().y1 / 2.0};
  const double amps = 0.05;
  for (auto _ : state) {
    const GridSolution sol = grid.solve(std::span<const Point>(&p, 1),
                                        std::span<const double>(&amps, 1),
                                        /*vdd_rail=*/true);
    benchmark::DoNotOptimize(sol.worst());
  }
}
BENCHMARK(BM_GridOptimized)->Unit(benchmark::kMillisecond);

void BM_GridReference(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  PowerGridOptions opt;
  opt.nx = 16;  // 256 nodes, bandwidth 16 in the banded Cholesky reference
  opt.ny = 16;
  const Point p{exp.soc.floorplan.die().x1 / 2.0,
                exp.soc.floorplan.die().y1 / 2.0};
  const double amps = 0.05;
  for (auto _ : state) {
    const GridSolution sol = ref::grid_solve_ref(
        exp.soc.floorplan, opt, std::span<const Point>(&p, 1),
        std::span<const double>(&amps, 1), /*vdd_rail=*/true);
    benchmark::DoNotOptimize(sol.worst());
  }
}
BENCHMARK(BM_GridReference)->Unit(benchmark::kMillisecond);

void BM_FuzzScenarioEndToEnd(benchmark::State& state) {
  // One full fuzz iteration on its own tiny SOC (generate, simulate, grade,
  // solve, compare) -- the unit cost behind `scap_fuzz --iterations N`.
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const ref::Scenario sc = ref::Scenario::random(seed++);
    const ref::ScenarioResult res = ref::run_scenario(sc);
    benchmark::DoNotOptimize(res.divergences.size());
  }
}
BENCHMARK(BM_FuzzScenarioEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("ref_models", "RefModels");
  scap::bench::print_header("RefModels",
                            "optimized kernels vs differential-oracle "
                            "reference models");
  run.phase("microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
