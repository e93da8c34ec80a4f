// Micro-benchmarks of the library's computational kernels, plus a
// thread-scaling sweep of the rt-parallelized kernels.
#include "bench_common.h"

#include <chrono>
#include <functional>
#include <iterator>
#include <span>
#include <thread>

#include "atpg/fault_sim.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "power/dynamic_ir.h"
#include "rt/thread_pool.h"
#include "sim/batch_sim.h"
#include "util/rng.h"

namespace scap {
namespace {

void BM_BatchSimFrame(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  const Netlist& nl = exp.soc.netlist;
  const BatchSim sim(nl.levelized_view(), 1);
  Rng rng(1);
  std::vector<std::uint64_t> s1(nl.num_flops());
  for (auto& w : s1) w = rng.word();
  std::vector<std::uint64_t> pi;
  for (const std::uint8_t v : exp.ctx.pi_values) pi.push_back(v ? ~0ull : 0ull);
  std::vector<std::uint64_t> nets;
  for (auto _ : state) {
    sim.eval_frame(s1, pi, nets);
    benchmark::DoNotOptimize(nets.data());
    benchmark::ClobberMemory();
  }
  // One W = 1 sweep settles 64 patterns.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(nl.num_gates()));
}
BENCHMARK(BM_BatchSimFrame);

void BM_EventSimPattern(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  Rng rng(2);
  Pattern p;
  p.s1.resize(exp.soc.netlist.num_flops());
  for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  for (auto _ : state) {
    auto pa = analyzer.analyze(exp.ctx, p);
    benchmark::DoNotOptimize(pa.trace.num_events_processed);
  }
}
BENCHMARK(BM_EventSimPattern)->Unit(benchmark::kMillisecond);

void BM_EventSimPatternStreaming(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  Rng rng(2);
  Pattern p;
  p.s1.resize(exp.soc.netlist.num_flops());
  for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  for (auto _ : state) {
    const ScapReport& rep = analyzer.analyze_scap(exp.ctx, p);
    benchmark::DoNotOptimize(rep.num_toggles);
  }
  state.counters["reused_runs"] =
      static_cast<double>(analyzer.workspace().reused_runs());
}
BENCHMARK(BM_EventSimPatternStreaming)->Unit(benchmark::kMillisecond);

void BM_GridSolveBothRails(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  Rng rng(3);
  Pattern p;
  p.s1.resize(exp.soc.netlist.num_flops());
  for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  const auto pa = analyzer.analyze(exp.ctx, p);
  for (auto _ : state) {
    auto rep = analyze_pattern_ir(exp.soc.netlist, exp.soc.placement,
                                  exp.soc.parasitics, *exp.lib,
                                  exp.soc.floorplan, exp.grid, pa.trace,
                                  &exp.soc.clock_tree, exp.ctx.domain);
    benchmark::DoNotOptimize(rep.worst_vdd_v);
  }
}
BENCHMARK(BM_GridSolveBothRails)->Unit(benchmark::kMillisecond);

void BM_PodemImplication(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  Podem podem(exp.soc.netlist, exp.ctx);
  Rng rng(4);
  std::vector<std::uint8_t> s1(exp.soc.netlist.num_flops());
  for (auto& b : s1) b = static_cast<std::uint8_t>(rng.below(2));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        podem.probe(exp.faults[i++ % exp.faults.size()], s1));
  }
}
BENCHMARK(BM_PodemImplication)->Unit(benchmark::kMillisecond);

void BM_ClockTreeSynthesis(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  for (auto _ : state) {
    auto ct = ClockTree::synthesize(exp.soc.netlist, exp.soc.placement,
                                    *exp.lib);
    benchmark::DoNotOptimize(ct.buffer_count());
  }
}
BENCHMARK(BM_ClockTreeSynthesis)->Unit(benchmark::kMillisecond);

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Strong-scaling sweep of the three rt-parallelized kernels at 1/2/4/8
/// global pool threads. Speedup and parallel efficiency (vs the 1-thread
/// run of the same kernel) are printed and recorded as obs gauges, so they
/// land in BENCH_kernels.json. On a machine with fewer physical cores than
/// the sweep point the extra threads just time-slice; efficiency then reads
/// below 1/T by design, not by defect.
void run_thread_scaling_sweep() {
  const Experiment& exp = bench::experiment();
  const Netlist& nl = exp.soc.netlist;

  const PatternSet pats = random_pattern_set(192, exp.ctx.num_vars(), 2007);
  const std::span<const Pattern> scap_pats =
      std::span<const Pattern>(pats.patterns)
          .first(std::min<std::size_t>(24, pats.size()));

  PowerGridOptions gopt;
  gopt.nx = 512;
  gopt.ny = 512;  // kAuto resolves to the multigrid solver at this size
  const PowerGrid big_grid(exp.soc.floorplan, gopt);
  std::vector<Point> where;
  std::vector<double> amps;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    where.push_back(exp.soc.placement.gate_pos(g));
    amps.push_back(2e-6 * static_cast<double>(1 + g % 5));
  }

  struct Kernel {
    const char* name;
    std::function<void()> body;
  };
  const Kernel kernels[] = {
      {"faultsim_grade",
       [&] {
         FaultSimulator fsim(nl, exp.ctx);
         auto first = fsim.grade(pats.patterns, exp.faults);
         benchmark::DoNotOptimize(first.data());
       }},
      {"grid_solve_512x512",
       [&] {
         benchmark::DoNotOptimize(
             big_grid.solve(where, amps, /*vdd_rail=*/true).iterations);
       }},
      {"scap_fanout",
       [&] {
         benchmark::DoNotOptimize(
             scap_profile_patterns(exp.soc, *exp.lib, exp.ctx, scap_pats)
                 .size());
       }},
  };
  constexpr std::size_t kThreads[] = {1, 2, 4, 8};

  std::printf("\nThread-scaling sweep (%u hardware threads on this host):\n",
              std::thread::hardware_concurrency());
  TextTable table({"kernel", "t=1 ms", "t=2 ms", "t=4 ms", "t=8 ms",
                   "speedup@4", "efficiency@4"});
  for (const Kernel& k : kernels) {
    double ms[std::size(kThreads)];
    for (std::size_t i = 0; i < std::size(kThreads); ++i) {
      rt::ThreadPool::set_global_concurrency(kThreads[i]);
      k.body();  // warm-up: fault caches, page in buffers
      // Best of three timed runs per point: single-shot wall clock on a
      // shared (often single-core) host swings far more than the speedup
      // deltas the rt.sweep gates pin down.
      ms[i] = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        if (obs::prof_enabled()) obs::prof_reset();  // profile one run only
        ms[i] = std::min(ms[i], wall_ms(k.body));
      }
      obs::observe("rt.sweep." + std::string(k.name) + ".t" +
                       std::to_string(kThreads[i]) + "_ms",
                   ms[i]);
      if (obs::prof_enabled()) {
        const obs::PoolProfile prof = obs::collect_pool_profile();
        obs::export_pool_profile(prof, obs::Registry::global(),
                                 "rt.prof." + std::string(k.name) + ".t" +
                                     std::to_string(kThreads[i]));
        if (kThreads[i] == 4 && !prof.empty()) {
          std::printf("\nScheduler profile: %s at t=4\n%s", k.name,
                      obs::format_pool_report(prof).c_str());
        }
      }
    }
    const double speedup4 = ms[2] > 0.0 ? ms[0] / ms[2] : 0.0;
    obs::observe("rt.sweep." + std::string(k.name) + ".t4_speedup", speedup4);
    obs::observe("rt.sweep." + std::string(k.name) + ".t4_efficiency",
                 speedup4 / 4.0);
    table.add_row({k.name, TextTable::num(ms[0], 1), TextTable::num(ms[1], 1),
                   TextTable::num(ms[2], 1), TextTable::num(ms[3], 1),
                   TextTable::num(speedup4, 2),
                   TextTable::num(speedup4 / 4.0, 2)});
  }
  rt::ThreadPool::set_global_concurrency(0);  // back to the env default
  std::printf("%s\n", table.render().c_str());
}

/// Head-to-head 512x512 PDN solve at one pool thread: multigrid to full
/// tolerance against SOR on the same mesh and load set. SOR's asymptotic
/// sweep count at this size is ~20k (spectral radius ~1 - O(1/n^2)), so the
/// SOR side runs under a sweep cap and its time -- and therefore the
/// recorded speedup -- is a LOWER BOUND on the true gap. The roadmap floor
/// is >= 3x; the gauge feeds bench_diff's warn-only trend gate.
void run_grid_solver_comparison() {
  const Experiment& exp = bench::experiment();
  const Netlist& nl = exp.soc.netlist;
  std::vector<Point> where;
  std::vector<double> amps;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    where.push_back(exp.soc.placement.gate_pos(g));
    amps.push_back(2e-6 * static_cast<double>(1 + g % 5));
  }

  constexpr std::uint32_t kSorSweepCap = 1500;
  PowerGridOptions mg_opt;
  mg_opt.nx = 512;
  mg_opt.ny = 512;
  mg_opt.solver = GridSolver::kMultigrid;
  PowerGridOptions sor_opt = mg_opt;
  sor_opt.solver = GridSolver::kSor;
  sor_opt.max_iterations = kSorSweepCap;

  rt::ThreadPool::set_global_concurrency(1);
  const PowerGrid mg_grid(exp.soc.floorplan, mg_opt);
  const PowerGrid sor_grid(exp.soc.floorplan, sor_opt);
  GridSolution mg_sol, sor_sol;
  double mg_ms = 1e300, sor_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    mg_ms = std::min(mg_ms, wall_ms([&] {
                       mg_sol = mg_grid.solve(where, amps, /*vdd_rail=*/true);
                     }));
  }
  for (int rep = 0; rep < 2; ++rep) {
    sor_ms = std::min(sor_ms, wall_ms([&] {
                        sor_sol =
                            sor_grid.solve(where, amps, /*vdd_rail=*/true);
                      }));
  }
  rt::ThreadPool::set_global_concurrency(0);

  const double speedup = mg_ms > 0.0 ? sor_ms / mg_ms : 0.0;
  obs::observe("grid.mg_512x512.t1_ms", mg_ms);
  obs::observe("grid.mg_512x512.cycles", mg_sol.iterations);
  obs::observe("grid.sor_512x512.capped_t1_ms", sor_ms);
  obs::observe("grid.mg_vs_sor_512x512.t1_speedup", speedup);
  std::printf(
      "\n512x512 PDN solve at t=1: multigrid %.1f ms (%u W-cycles, "
      "converged=%d, residual %.2e V) vs SOR %.1f ms (capped at %u sweeps, "
      "converged=%d) -> >= %.1fx\n",
      mg_ms, mg_sol.iterations, mg_sol.converged ? 1 : 0,
      mg_sol.final_delta_v, sor_ms, kSorSweepCap, sor_sol.converged ? 1 : 0,
      speedup);
}

/// Per-pattern streaming analysis throughput on one warm PatternAnalyzer.
/// After a short warm-up that sizes the workspace pools, every subsequent
/// pattern must be served allocation-free: grown_runs stalls while runs keeps
/// climbing, which is the zero-allocation evidence recorded in
/// BENCH_kernels.json alongside the patterns/sec number. Returns the
/// measured patterns/sec (the baseline the static screen is compared to).
double run_streaming_throughput() {
  const Experiment& exp = bench::experiment();
  const PatternSet pats = random_pattern_set(256, exp.ctx.num_vars(), 2007);
  PatternAnalyzer analyzer(exp.soc, *exp.lib);

  // Warm pass: lets every pool reach its high-water mark for this pattern
  // set. The measured pass below then runs in steady state.
  for (const Pattern& p : pats.patterns) {
    analyzer.analyze_scap(exp.ctx, p);
  }
  const std::size_t grown_after_warmup = analyzer.workspace().grown_runs();

  const double ms = wall_ms([&] {
    for (const Pattern& p : pats.patterns) {
      benchmark::DoNotOptimize(analyzer.analyze_scap(exp.ctx, p).num_toggles);
    }
  });
  const double pps =
      ms > 0.0 ? 1000.0 * static_cast<double>(pats.size()) / ms : 0.0;
  const std::size_t grown_steady =
      analyzer.workspace().grown_runs() - grown_after_warmup;

  obs::observe("eventsim.patterns_per_sec", pps);
  obs::observe("eventsim.workspace.reuse",
               static_cast<double>(analyzer.workspace().reused_runs()));
  obs::observe("eventsim.workspace.grown_steady_state",
               static_cast<double>(grown_steady));
  std::printf(
      "\nStreaming per-pattern analysis: %zu patterns in %.1f ms "
      "(%.0f patterns/sec); workspace runs=%zu grown=%zu "
      "steady-state growths=%zu (0 == allocation-free)\n",
      pats.size(), ms, pps, analyzer.workspace().runs(),
      analyzer.workspace().grown_runs(), grown_steady);
  return pps;
}

/// Tier-1 static screen throughput (PatternAnalyzer::screen_static) against
/// the event-sim baseline measured above, plus the fraction of patterns the
/// two-tier cascade proves clean without simulation. The speedup is the
/// whole point of the cascade: the roadmap gate is >= 5x patterns/sec.
void run_static_screen_throughput(double eventsim_pps) {
  const Experiment& exp = bench::experiment();
  const PatternSet pats = random_pattern_set(256, exp.ctx.num_vars(), 2007);
  PatternAnalyzer analyzer(exp.soc, *exp.lib);

  // Warm pass: builds the lazy StaticScapModel (levelization) and sizes the
  // scratch vectors; the measured pass is steady-state.
  for (const Pattern& p : pats.patterns) {
    analyzer.screen_static(exp.ctx, p);
  }
  const double ms = wall_ms([&] {
    for (const Pattern& p : pats.patterns) {
      benchmark::DoNotOptimize(
          analyzer.screen_static(exp.ctx, p).toggle_bound);
    }
  });
  const double pps =
      ms > 0.0 ? 1000.0 * static_cast<double>(pats.size()) / ms : 0.0;
  const double speedup = eventsim_pps > 0.0 ? pps / eventsim_pps : 0.0;

  const ScapScreenResult screen =
      scap_screen_patterns(exp.soc, *exp.lib, exp.ctx, pats.patterns,
                           exp.thresholds, Experiment::kHotBlock);
  const double clean_frac =
      static_cast<double>(screen.statically_clean) /
      static_cast<double>(pats.size());

  obs::observe("screen.static.patterns_per_sec", pps);
  obs::observe("screen.static.speedup_vs_eventsim", speedup);
  obs::observe("screen.static.clean_fraction", clean_frac);
  std::printf(
      "\nStatic SCAP screen: %zu patterns in %.2f ms (%.0f patterns/sec, "
      "%.1fx event-sim); cascade skips %zu/%zu patterns "
      "(%.0f%% statically clean)\n",
      pats.size(), ms, pps, speedup, screen.statically_clean, pats.size(),
      100.0 * clean_frac);
}

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("kernels", "Kernels", "micro-benchmarks of the core engines");
  run.phase("thread_scaling");
  scap::run_thread_scaling_sweep();
  run.phase("grid_solver_comparison");
  scap::run_grid_solver_comparison();
  run.phase("streaming_throughput");
  const double eventsim_pps = scap::run_streaming_throughput();
  run.phase("static_screen");
  scap::run_static_screen_throughput(eventsim_pps);
  run.phase("microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
