// Micro-benchmarks of the library's computational kernels, plus a
// thread-scaling sweep of the rt-parallelized kernels.
#include "bench_common.h"

#include <benchmark/benchmark.h>

#include <cctype>
#include <chrono>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "atpg/fault_sim.h"
#include "atpg/quiet_state.h"
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
  DynamicIrBinner binner(exp.soc.netlist, exp.soc.parasitics, *exp.lib);
  analyzer.analyze_into(exp.ctx, p, binner);
  for (auto _ : state) {
    auto rep = analyze_pattern_ir(exp.soc.netlist, exp.soc.placement,
                                  *exp.lib, exp.soc.floorplan, exp.grid,
                                  binner.charges(), &exp.soc.clock_tree,
                                  exp.ctx.domain);
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

void BM_BuildSoc(benchmark::State& state) {
  for (auto _ : state) {
    SocConfig cfg = SocConfig::turbo_eagle_scaled(0.01);
    SocDesign soc = build_soc(cfg);
    benchmark::DoNotOptimize(soc.netlist.num_gates());
  }
}
BENCHMARK(BM_BuildSoc)->Unit(benchmark::kMillisecond);

void BM_ScanStitch(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  for (auto _ : state) {
    auto sc = ScanChains::build(exp.soc.netlist, exp.soc.placement,
                                exp.soc.config.scan_chains);
    benchmark::DoNotOptimize(sc.max_chain_length());
  }
}
BENCHMARK(BM_ScanStitch)->Unit(benchmark::kMillisecond);

void BM_FaultEnumeration(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  for (auto _ : state) {
    auto faults = enumerate_faults(exp.soc.netlist);
    benchmark::DoNotOptimize(faults);
  }
}
BENCHMARK(BM_FaultEnumeration);

void BM_FaultCollapsing(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  for (auto _ : state) {
    auto collapsed = collapse_faults(exp.soc.netlist, exp.all_faults);
    benchmark::DoNotOptimize(collapsed);
  }
}
BENCHMARK(BM_FaultCollapsing);

void BM_StatisticalAnalysis(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  StatisticalOptions opt;
  opt.window_fraction = 0.5;
  for (auto _ : state) {
    auto rep = analyze_statistical(exp.soc.netlist, exp.soc.placement,
                                   exp.soc.parasitics, *exp.lib,
                                   exp.soc.floorplan, exp.grid,
                                   exp.soc.config.domain_freq_mhz,
                                   &exp.soc.clock_tree, opt);
    benchmark::DoNotOptimize(rep.chip_worst_vdd_v);
  }
}
BENCHMARK(BM_StatisticalAnalysis)->Unit(benchmark::kMillisecond);

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
  const PatternSet pats = random_pattern_set(64, exp.ctx.num_vars(), 2007);
  const std::span<const TdfFault> faults(
      exp.faults.data(), std::min<std::size_t>(256, exp.faults.size()));
  for (auto _ : state) {
    const auto first = fsim.grade(pats.patterns, faults);
    benchmark::DoNotOptimize(first.data());
  }
}
BENCHMARK(BM_FaultSimBatch)->Unit(benchmark::kMillisecond);

void BM_QuietStateSearch(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  for (auto _ : state) {
    auto qs = compute_quiet_state(exp.soc.netlist, exp.ctx);
    benchmark::DoNotOptimize(qs.residual_launches);
  }
}
BENCHMARK(BM_QuietStateSearch)->Unit(benchmark::kMillisecond);

void BM_EndpointDelayExtraction(benchmark::State& state) {
  const Experiment& exp = bench::experiment();
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  SettleTimeTracker settle;
  analyzer.analyze_into(
      exp.ctx, random_pattern_set(1, exp.ctx.num_vars(), 2007).patterns[0],
      settle);
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

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Strong-scaling sweep of the six rt-parallelized kernels at 1/2/4/8
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

  // A sign-off set shaped like pipebench's validate_set: 48 random-fill
  // patterns, then 48 quiet-fill ones around a few care bits. The slow half
  // comes first, so only a balanced loop scales on it.
  std::vector<Pattern> mixed(pats.patterns.begin(), pats.patterns.begin() + 48);
  {
    std::vector<std::uint8_t> quiet = compute_quiet_state(nl, exp.ctx).s1;
    quiet.resize(exp.ctx.num_vars(), 0);
    Rng rng(2007);
    for (int i = 0; i < 48; ++i) {
      TestCube cube;
      cube.s1.assign(exp.ctx.num_vars(), kBitX);
      for (int c = 0; c < 4; ++c) {
        cube.s1[rng.below(nl.num_flops())] =
            static_cast<std::uint8_t>(rng.below(2));
      }
      mixed.push_back(apply_fill(cube, FillMode::kQuiet, rng, {}, quiet));
    }
  }

  // Conventional ATPG runs on its own scale-0.012 fixture, so one serial
  // run takes about a second.
  const Experiment small = Experiment::standard(0.012, 2007);
  AtpgOptions atpg_opt;
  atpg_opt.seed = 2007;
  atpg_opt.backtrack_limit = 32;
  atpg_opt.fill = FillMode::kRandom;
  atpg_opt.chains = &small.soc.scan.chains;

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
      {"scap_fanout",
       [&] {
         benchmark::DoNotOptimize(
             scap_profile_patterns(exp.soc, *exp.lib, exp.ctx, scap_pats)
                 .size());
       }},
      {"scap_screen_mixed",
       [&] {
         benchmark::DoNotOptimize(
             scap_screen_patterns(exp.soc, *exp.lib, exp.ctx, mixed,
                                  exp.thresholds, Experiment::kHotBlock)
                 .count_violations());
       }},
      {"validate_pattern_ir",
       [&] {
         for (std::size_t i = 0; i < 4; ++i) {
           benchmark::DoNotOptimize(
               validate_pattern_ir(exp.soc, *exp.lib, exp.grid, exp.ctx,
                                   mixed[i])
                   .ir.worst_vdd_v);
         }
       }},
      {"atpg_conventional",
       [&] {
         benchmark::DoNotOptimize(
             run_conventional_atpg(small.soc.netlist, small.ctx, small.faults,
                                   atpg_opt)
                 .patterns.size());
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

/// Per-pattern streaming analysis throughput on one warm PatternAnalyzer.
/// After a short warm-up that sizes the workspace pools, every subsequent
/// pattern must be served allocation-free: grown_runs stalls while runs keeps
/// climbing, which is the zero-allocation evidence recorded in
/// BENCH_kernels.json alongside the patterns/sec number.
void run_streaming_throughput() {
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
}

}  // namespace
}  // namespace scap

namespace {

/// Whether the command line sets --benchmark_list_tests (bare or with a true
/// value; the last occurrence wins). Read before Initialize, which consumes
/// the flags it knows.
bool list_tests_requested(int argc, char** argv) {
  constexpr std::string_view kFlag = "--benchmark_list_tests";
  bool on = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) != kFlag) continue;
    const std::string_view rest = arg.substr(kFlag.size());
    if (rest.empty()) {
      on = true;
    } else if (rest[0] == '=') {
      std::string v(rest.substr(1));
      for (char& c : v) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      on = !(v.empty() || v == "0" || v == "f" || v == "n" || v == "false" ||
             v == "no" || v == "off");
    }
  }
  return on;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags first: a typo fails at once instead of after the phases, and a
  // listing runs none of them.
  const bool list_only = list_tests_requested(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (list_only) {
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  scap::bench::BenchRun run("kernels", "Kernels");
  scap::bench::print_header("Kernels", "micro-benchmarks of the core engines");
  run.phase("thread_scaling");
  scap::run_thread_scaling_sweep();
  run.phase("streaming_throughput");
  scap::run_streaming_throughput();
  run.phase("microbench");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
