// Property tests for the runtime's central contract: every parallelized
// pipeline produces bit-identical results at any SCAP_THREADS. Each test runs
// the same workload with the global pool at 1 thread and at 4 threads and
// compares outputs with exact (==) equality -- never EXPECT_NEAR.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "atpg/fault_sim.h"
#include "atpg/pattern.h"
#include "atpg/quiet_state.h"
#include "core/experiment.h"
#include "core/power_aware.h"
#include "core/validation.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "power/power_grid.h"
#include "power/statistical.h"
#include "rt/thread_pool.h"
#include "util/rng.h"

namespace scap {
namespace {

/// Same miniature fixture as core_flow_test; built once at whatever
/// concurrency the environment selects (the point under test is that this
/// does not matter).
const Experiment& exp_fixture() {
  static Experiment* exp = new Experiment(Experiment::standard(0.012, 2007));
  return *exp;
}

/// Run `fn` with the global pool pinned to `threads`, restoring the
/// environment-selected default afterwards.
template <typename Fn>
auto at_threads(std::size_t threads, Fn&& fn) {
  rt::ThreadPool::set_global_concurrency(threads);
  auto out = fn();
  rt::ThreadPool::set_global_concurrency(0);
  return out;
}

/// Run `fn` like at_threads, between two registry snapshots, and return its
/// output with the atpg.* counters it recorded: the committed PODEM work
/// (podem_generates, podem_extends, compaction_merges, implications,
/// backtracks, and the limit_* split of calls that stopped at the backtrack
/// limit) and the engine's per-run outcomes (*_faults). Speculative
/// searches that were discarded must not show up in them.
template <typename Fn>
auto counted_at_threads(std::size_t threads, Fn&& fn) {
  obs::Registry::global().snapshot_and_reset();
  auto out = at_threads(threads, fn);
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [name, value] :
       obs::Registry::global().snapshot_and_reset().counters) {
    if (name.starts_with("atpg.")) counts[name] = value;
  }
  EXPECT_GT(counts["atpg.podem_generates"], 0u) << "the run must search";
  return std::pair(std::move(out), std::move(counts));
}

void expect_stats_identical(const AtpgStats& a, const AtpgStats& b) {
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.untestable, b.untestable);
  EXPECT_EQ(a.aborted, b.aborted);
}

void expect_patterns_identical(const PatternSet& a, const PatternSet& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.domain, b.domain);
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a.patterns[p].s1, b.patterns[p].s1) << "pattern " << p;
  }
}

void expect_reports_identical(const std::vector<ScapReport>& a,
                              const std::vector<ScapReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stw_ns, b[i].stw_ns) << "pattern " << i;
    EXPECT_EQ(a[i].period_ns, b[i].period_ns) << "pattern " << i;
    EXPECT_EQ(a[i].num_toggles, b[i].num_toggles) << "pattern " << i;
    EXPECT_EQ(a[i].vdd_energy_pj, b[i].vdd_energy_pj) << "pattern " << i;
    EXPECT_EQ(a[i].vss_energy_pj, b[i].vss_energy_pj) << "pattern " << i;
    EXPECT_EQ(a[i].vdd_energy_total_pj, b[i].vdd_energy_total_pj)
        << "pattern " << i;
    EXPECT_EQ(a[i].vss_energy_total_pj, b[i].vss_energy_total_pj)
        << "pattern " << i;
  }
}

TEST(RtDeterminism, Fig2ConventionalPipeline) {
  // Figure 2's pipeline: conventional random-fill ATPG, then the per-pattern
  // SCAP profile of the whole set.
  const Experiment& exp = exp_fixture();
  AtpgOptions opt;
  opt.seed = 99;
  opt.fill = FillMode::kRandom;
  auto run = [&] {
    FlowResult flow =
        run_conventional_atpg(exp.soc.netlist, exp.ctx, exp.faults, opt);
    std::vector<ScapReport> scap =
        scap_profile(exp.soc, *exp.lib, exp.ctx, flow.patterns);
    return std::pair(std::move(flow), std::move(scap));
  };
  const auto [at1, counts1] = counted_at_threads(1, run);
  const auto [at4, counts4] = counted_at_threads(4, run);

  expect_patterns_identical(at1.first.patterns, at4.first.patterns);
  EXPECT_EQ(at1.first.new_detects_per_pattern,
            at4.first.new_detects_per_pattern);
  EXPECT_EQ(at1.first.coverage_curve(), at4.first.coverage_curve());
  expect_stats_identical(at1.first.stats, at4.first.stats);
  EXPECT_EQ(counts1, counts4);
  // Calls stopped at the backtrack limit are compared like the rest.
  for (const char* name : {"atpg.limit_generates", "atpg.limit_extends",
                           "atpg.limit_implications"}) {
    EXPECT_TRUE(counts1.contains(name)) << name << " never counted";
  }
  expect_reports_identical(at1.second, at4.second);
}

TEST(RtDeterminism, Fig6PowerAwarePipeline) {
  // Figure 6's pipeline: the stepwise power-aware flow plus its SCAP profile.
  const Experiment& exp = exp_fixture();
  AtpgOptions opt;
  opt.seed = 99;
  opt.fill = FillMode::kQuiet;
  const StepPlan plan = StepPlan::paper_default(exp.soc.netlist.block_count());
  auto run = [&] {
    FlowResult flow = run_power_aware_atpg(exp.soc.netlist, exp.ctx,
                                           exp.faults, plan, opt);
    std::vector<ScapReport> scap =
        scap_profile(exp.soc, *exp.lib, exp.ctx, flow.patterns);
    return std::pair(std::move(flow), std::move(scap));
  };
  const auto [at1, counts1] = counted_at_threads(1, run);
  const auto [at4, counts4] = counted_at_threads(4, run);

  expect_patterns_identical(at1.first.patterns, at4.first.patterns);
  EXPECT_EQ(at1.first.step_start, at4.first.step_start);
  EXPECT_EQ(at1.first.coverage_curve(), at4.first.coverage_curve());
  expect_stats_identical(at1.first.stats, at4.first.stats);
  EXPECT_EQ(counts1, counts4);
  expect_reports_identical(at1.second, at4.second);
}

TEST(RtDeterminism, FaultGradeShardingInvariant) {
  // The fault-parallel grade must report the same first-detect pattern per
  // fault and the same per-pattern detect counts as the serial pass.
  const Experiment& exp = exp_fixture();
  const PatternSet pats =
      random_pattern_set(96, exp.ctx.num_vars(), /*seed=*/2007);
  auto run = [&] {
    FaultSimulator fsim(exp.soc.netlist, exp.ctx);
    std::vector<std::size_t> counts;
    std::vector<std::size_t> first =
        fsim.grade(pats.patterns, exp.faults, &counts);
    return std::pair(std::move(first), std::move(counts));
  };
  const auto at1 = at_threads(1, run);
  const auto at4 = at_threads(4, run);
  EXPECT_EQ(at1.first, at4.first);
  EXPECT_EQ(at1.second, at4.second);
}

TEST(RtDeterminism, StatisticalAnalysisInvariant) {
  const Experiment& exp = exp_fixture();
  const Netlist& nl = exp.soc.netlist;
  std::vector<double> freq(nl.domain_count(), 100.0);
  StatisticalOptions opt;
  auto run = [&] {
    return analyze_statistical(nl, exp.soc.placement, exp.soc.parasitics,
                               *exp.lib, exp.soc.floorplan, exp.grid, freq,
                               &exp.soc.clock_tree, opt);
  };
  const StatisticalReport at1 = at_threads(1, run);
  const StatisticalReport at4 = at_threads(4, run);

  EXPECT_EQ(at1.chip_power_mw, at4.chip_power_mw);
  EXPECT_EQ(at1.block_power_mw, at4.block_power_mw);
  EXPECT_EQ(at1.vdd_solution.drop_v, at4.vdd_solution.drop_v);
  EXPECT_EQ(at1.vss_solution.drop_v, at4.vss_solution.drop_v);
  EXPECT_EQ(at1.block_worst_vdd_v, at4.block_worst_vdd_v);
  EXPECT_EQ(at1.block_worst_vss_v, at4.block_worst_vss_v);
  EXPECT_EQ(at1.chip_worst_vdd_v, at4.chip_worst_vdd_v);
}

TEST(RtDeterminism, ValidatePatternIrInvariant) {
  // The single-pass streaming validation (SCAP + rail charges + settle
  // times off one simulation, then two parallel grid solves) must be
  // bit-identical at any thread count.
  const Experiment& exp = exp_fixture();
  const PatternSet pats =
      random_pattern_set(1, exp.ctx.num_vars(), /*seed=*/2007);
  auto run = [&] {
    return validate_pattern_ir(exp.soc, *exp.lib, exp.grid, exp.ctx,
                               pats.patterns[0]);
  };
  const IrValidationResult at1 = at_threads(1, run);
  const IrValidationResult at4 = at_threads(4, run);

  EXPECT_EQ(at1.nominal.scap.vdd_energy_pj, at4.nominal.scap.vdd_energy_pj);
  EXPECT_EQ(at1.nominal.scap.stw_ns, at4.nominal.scap.stw_ns);
  EXPECT_EQ(at1.nominal.scap.num_toggles, at4.nominal.scap.num_toggles);
  EXPECT_EQ(at1.ir.worst_vdd_v, at4.ir.worst_vdd_v);
  EXPECT_EQ(at1.ir.worst_vss_v, at4.ir.worst_vss_v);
  EXPECT_EQ(at1.ir.gate_droop_v, at4.ir.gate_droop_v);
  EXPECT_EQ(at1.ir.flop_droop_v, at4.ir.flop_droop_v);
  EXPECT_EQ(at1.scaled_arrival_ns, at4.scaled_arrival_ns);
  EXPECT_EQ(at1.nominal_endpoint_ns, at4.nominal_endpoint_ns);
  EXPECT_EQ(at1.scaled_endpoint_ns, at4.scaled_endpoint_ns);
  EXPECT_EQ(at1.scaled.scap.vdd_energy_total_pj,
            at4.scaled.scap.vdd_energy_total_pj);
}

TEST(RtDeterminism, SchedulerProfilerDoesNotChangeResults) {
  // SCAP_PROF only observes the scheduler; turning it on must not perturb a
  // parallel pipeline's output in any bit.
  const Experiment& exp = exp_fixture();
  const PatternSet pats =
      random_pattern_set(96, exp.ctx.num_vars(), /*seed=*/2007);
  auto run = [&] {
    FaultSimulator fsim(exp.soc.netlist, exp.ctx);
    std::vector<std::size_t> counts;
    std::vector<std::size_t> first =
        fsim.grade(pats.patterns, exp.faults, &counts);
    return std::pair(std::move(first), std::move(counts));
  };
  obs::ObsConfig cfg = obs::config();
  cfg.prof = false;
  obs::configure(cfg);
  const auto off = at_threads(4, run);
  cfg.prof = true;
  obs::configure(cfg);
  obs::prof_reset();
  const auto on = at_threads(4, run);
  cfg.prof = false;
  obs::configure(cfg);

  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);
  // And the profiler actually saw the profiled run.
  EXPECT_FALSE(obs::collect_pool_profile().empty());
  obs::prof_reset();
}

TEST(RtDeterminism, ScapScreenInvariant) {
  // The threshold screen must give the same verdicts, and exactly the
  // verdicts of the profile, at any thread count. Two inputs: 96
  // uniform random patterns, and a set shaped like pipebench's validate_set
  // -- a random half, then a quiet-fill half around a few care bits --
  // whose slow patterns all sit in the first half.
  const Experiment& exp = exp_fixture();
  const Netlist& nl = exp.soc.netlist;
  const PatternSet uniform =
      random_pattern_set(96, exp.ctx.num_vars(), /*seed=*/2007);
  std::vector<Pattern> uneven =
      random_pattern_set(48, exp.ctx.num_vars(), /*seed=*/11).patterns;
  {
    std::vector<std::uint8_t> quiet = compute_quiet_state(nl, exp.ctx).s1;
    quiet.resize(exp.ctx.num_vars(), 0);
    Rng rng(11);
    for (int i = 0; i < 48; ++i) {
      TestCube cube;
      cube.s1.assign(exp.ctx.num_vars(), kBitX);
      for (int c = 0; c < 4; ++c) {
        cube.s1[rng.below(nl.num_flops())] =
            static_cast<std::uint8_t>(rng.below(2));
      }
      uneven.push_back(apply_fill(cube, FillMode::kQuiet, rng, {}, quiet));
    }
  }

  for (const std::span<const Pattern> pats :
       {std::span<const Pattern>(uniform.patterns),
        std::span<const Pattern>(uneven)}) {
    auto run = [&] {
      return scap_screen_patterns(exp.soc, *exp.lib, exp.ctx, pats,
                                  exp.thresholds, Experiment::kHotBlock);
    };
    const ScapScreenResult at1 = at_threads(1, run);
    const ScapScreenResult at4 = at_threads(4, run);

    EXPECT_EQ(at1.violates, at4.violates);

    // Verdict equivalence with the profile of the same patterns.
    auto profile = [&] {
      return scap_profile_patterns(exp.soc, *exp.lib, exp.ctx, pats);
    };
    const std::vector<ScapReport> exact = at_threads(4, profile);
    ASSERT_EQ(exact.size(), at4.violates.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(at4.violates[i] != 0,
                exp.thresholds.violates(exact[i], Experiment::kHotBlock))
          << "pattern " << i;
    }
    if (pats.data() == uneven.data()) {
      expect_reports_identical(at_threads(1, profile), exact);
      // The quiet half must actually be quieter, or the input is not uneven.
      std::size_t random_toggles = 0, quiet_toggles = 0;
      for (std::size_t i = 0; i < 48; ++i) {
        random_toggles += exact[i].num_toggles;
        quiet_toggles += exact[48 + i].num_toggles;
      }
      EXPECT_GT(random_toggles, 2 * quiet_toggles);
    }
  }
}

TEST(RtDeterminism, RepairFlowInvariant) {
  // The repair loop interleaves parallel grading, parallel SCAP screening,
  // and speculative ATPG rounds; the kept pattern set must not depend on the
  // thread count. RepairResult carries no AtpgStats, so the rounds' outcomes
  // are compared through the engine's per-run outcome counters.
  const Experiment& exp = exp_fixture();
  AtpgOptions conv;
  conv.seed = 99;
  conv.fill = FillMode::kRandom;
  const FlowResult flow = at_threads(
      1, [&] {
        return run_conventional_atpg(exp.soc.netlist, exp.ctx, exp.faults,
                                     conv);
      });
  AtpgOptions opt;
  opt.seed = 123;
  auto run = [&] {
    return repair_scap_violations(exp.soc, *exp.lib, exp.ctx, exp.faults,
                                  flow.patterns, exp.thresholds,
                                  Experiment::kHotBlock, opt,
                                  /*max_rounds=*/2);
  };
  const auto [at1, counts1] = counted_at_threads(1, run);
  const auto [at4, counts4] = counted_at_threads(4, run);

  expect_patterns_identical(at1.patterns, at4.patterns);
  EXPECT_EQ(at1.violations_before, at4.violations_before);
  EXPECT_EQ(at1.violations_after, at4.violations_after);
  EXPECT_EQ(at1.detected_before, at4.detected_before);
  EXPECT_EQ(at1.detected_after, at4.detected_after);
  EXPECT_EQ(at1.rounds, at4.rounds);
  EXPECT_EQ(counts1, counts4);
}

}  // namespace
}  // namespace scap
