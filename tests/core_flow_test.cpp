// Integration tests of the paper's end-to-end flows: thresholds from the
// statistical analysis, conventional vs power-aware pattern generation, SCAP
// screening, and the IR-drop delay-scaling validation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiment.h"
#include "core/power_aware.h"
#include "core/validation.h"
#include "rt/thread_pool.h"
#include "test_helpers.h"

namespace scap {
namespace {

/// One shared small experiment (built once; everything downstream is
/// deterministic).
const Experiment& exp_fixture() {
  static Experiment* exp = new Experiment(Experiment::standard(0.012, 2007));
  return *exp;
}

AtpgOptions base_options() {
  AtpgOptions opt;
  opt.seed = 99;
  return opt;
}

struct Flows {
  FlowResult conventional;
  FlowResult power_aware;
  std::vector<ScapReport> conv_scap;
  std::vector<ScapReport> pa_scap;
};

const Flows& flows_fixture() {
  static Flows* flows = [] {
    const Experiment& exp = exp_fixture();
    auto* f = new Flows();
    AtpgOptions conv = base_options();
    conv.fill = FillMode::kRandom;
    f->conventional = run_conventional_atpg(exp.soc.netlist, exp.ctx,
                                            exp.faults, conv);
    AtpgOptions pa = base_options();
    pa.fill = FillMode::kQuiet;
    f->power_aware = run_power_aware_atpg(
        exp.soc.netlist, exp.ctx, exp.faults,
        StepPlan::paper_default(exp.soc.netlist.block_count()), pa);
    f->conv_scap = scap_profile(exp.soc, *exp.lib, exp.ctx,
                                f->conventional.patterns);
    f->pa_scap = scap_profile(exp.soc, *exp.lib, exp.ctx,
                              f->power_aware.patterns);
    return f;
  }();
  return *flows;
}

TEST(Thresholds, DerivedFromCase2BlockPower) {
  const Experiment& exp = exp_fixture();
  ASSERT_EQ(exp.thresholds.block_mw.size(), exp.soc.netlist.block_count());
  for (std::size_t b = 0; b < exp.thresholds.block_mw.size(); ++b) {
    EXPECT_DOUBLE_EQ(exp.thresholds.block_mw[b],
                     exp.stat_case2.block_power_mw[b]);
    EXPECT_GT(exp.thresholds.block_mw[b], 0.0);
  }
}

TEST(Thresholds, ViolationCountingConsistent) {
  const Experiment& exp = exp_fixture();
  const Flows& f = flows_fixture();
  const std::size_t hot = Experiment::kHotBlock;
  std::size_t manual = 0;
  for (const auto& rep : f.conv_scap) {
    manual += exp.thresholds.violates(rep, hot) ? 1 : 0;
  }
  EXPECT_EQ(exp.thresholds.count_violations(f.conv_scap, hot), manual);
}

TEST(PowerAwareFlow, ReducesHotBlockScapViolations) {
  // The paper's headline: random-fill 2253/5846 over threshold vs 57/6490
  // for the stepwise fill-0 flow.
  const Experiment& exp = exp_fixture();
  const Flows& f = flows_fixture();
  const std::size_t hot = Experiment::kHotBlock;
  const std::size_t conv_v = exp.thresholds.count_violations(f.conv_scap, hot);
  const std::size_t pa_v = exp.thresholds.count_violations(f.pa_scap, hot);
  EXPECT_GT(conv_v, 0u) << "random-fill should stress B5";
  // At this miniature scale each B5-step pattern disturbs a large fraction
  // of tiny B5, so the contrast is far weaker than the paper's (and than the
  // bench-scale run, where the rate drops ~50x); compare violation *rates*
  // and require at least a strong reduction.
  const double conv_rate = static_cast<double>(conv_v) /
                           static_cast<double>(f.conv_scap.size());
  const double pa_rate = static_cast<double>(pa_v) /
                         static_cast<double>(f.pa_scap.size());
  EXPECT_LT(pa_rate, 0.6 * conv_rate) << "power-aware flow must cut the "
                                         "violation rate";
}

TEST(PowerAwareFlow, BoundedPatternCountIncrease) {
  const Flows& f = flows_fixture();
  EXPECT_GE(f.power_aware.patterns.size(), f.conventional.patterns.size());
  // The paper saw ~8-11% extra at Turbo-Eagle scale. On the miniature test
  // design the throttled hot-block step costs proportionally more patterns
  // (care bits per pattern do not shrink with the design); bound the blowup.
  EXPECT_LT(f.power_aware.patterns.size(),
            3 * f.conventional.patterns.size());
}

TEST(PowerAwareFlow, SimilarFinalCoverage) {
  const Flows& f = flows_fixture();
  EXPECT_NEAR(f.power_aware.stats.fault_coverage(),
              f.conventional.stats.fault_coverage(), 0.08);
}

TEST(PowerAwareFlow, StepStructure) {
  const Flows& f = flows_fixture();
  ASSERT_EQ(f.power_aware.step_start.size(), 3u);
  EXPECT_EQ(f.power_aware.step_start[0], 0u);
  EXPECT_LE(f.power_aware.step_start[1], f.power_aware.step_start[2]);
  EXPECT_LE(f.power_aware.step_start[2], f.power_aware.patterns.size());
}

TEST(PowerAwareFlow, HotBlockQuietUntilItsStep) {
  // Figure 6's shape: B5 SCAP stays low during steps 1-2 and bursts in
  // step 3 when B5's own faults are targeted.
  const Flows& f = flows_fixture();
  const std::size_t b5_step = f.power_aware.step_start[2];
  if (b5_step == 0 || b5_step >= f.pa_scap.size()) GTEST_SKIP();
  const std::size_t hot = Experiment::kHotBlock;
  double before = 0.0, after = 0.0;
  for (std::size_t i = 0; i < b5_step; ++i) {
    before += ScapThresholds::block_scap_mw(f.pa_scap[i], hot);
  }
  before /= static_cast<double>(b5_step);
  for (std::size_t i = b5_step; i < f.pa_scap.size(); ++i) {
    after += ScapThresholds::block_scap_mw(f.pa_scap[i], hot);
  }
  after /= static_cast<double>(f.pa_scap.size() - b5_step);
  // Cross-block nets couple some neighbour activity into B5 even while it is
  // quiet-filled, so the burst contrast is softer than the paper's strongly
  // isolated blocks; the step-3 rise must still be clearly visible.
  EXPECT_GT(after, 1.3 * before);
}

TEST(PowerAwareFlow, CoverageCurveMonotone) {
  const Flows& f = flows_fixture();
  const auto curve = f.power_aware.coverage_curve();
  ASSERT_EQ(curve.size(), f.power_aware.patterns.size());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
  }
  if (!curve.empty()) {
    EXPECT_NEAR(curve.back(), f.power_aware.stats.fault_coverage(), 1e-9);
  }
}

TEST(ScapProfile, OneReportPerPattern) {
  const Flows& f = flows_fixture();
  EXPECT_EQ(f.conv_scap.size(), f.conventional.patterns.size());
  for (const auto& rep : f.conv_scap) {
    EXPECT_GE(rep.stw_ns, 0.0);
    EXPECT_LE(rep.stw_ns, rep.period_ns);
  }
}

TEST(ScapProfile, RejectsBadInputAtAnyThreadCount) {
  // A pattern shorter than the context's test variables is a clean
  // std::invalid_argument from the profile and the screen at any pool size,
  // wherever it sits in the set and whichever lane reaches it. So is a screen
  // hot block without a threshold or without a block in the design.
  const Experiment& exp = exp_fixture();
  const std::size_t blocks = exp.soc.netlist.block_count();
  ScapThresholds extra = exp.thresholds;
  extra.block_mw.resize(blocks + 1, extra.block_mw.back());
  for (const std::size_t threads : {1u, 4u}) {
    rt::ThreadPool::set_global_concurrency(threads);
    for (const bool last : {false, true}) {
      PatternSet pats = random_pattern_set(40, exp.ctx.num_vars(), 2007);
      pats.patterns[last ? pats.size() - 1 : 0].s1.resize(
          exp.ctx.num_vars() - 1);
      EXPECT_THROW(scap_profile_patterns(exp.soc, *exp.lib, exp.ctx,
                                         pats.patterns),
                   std::invalid_argument)
          << threads << " threads, short pattern " << (last ? "last" : "first");
      EXPECT_THROW(scap_screen_patterns(exp.soc, *exp.lib, exp.ctx,
                                        pats.patterns, exp.thresholds,
                                        Experiment::kHotBlock),
                   std::invalid_argument)
          << threads << " threads, short pattern " << (last ? "last" : "first");
    }
    const PatternSet pats = random_pattern_set(40, exp.ctx.num_vars(), 2007);
    EXPECT_THROW(scap_screen_patterns(exp.soc, *exp.lib, exp.ctx,
                                      pats.patterns, ScapThresholds{}, 4),
                 std::invalid_argument)
        << threads << " threads, no threshold for the hot block";
    EXPECT_THROW(scap_screen_patterns(exp.soc, *exp.lib, exp.ctx,
                                      pats.patterns, extra, blocks),
                 std::invalid_argument)
        << threads << " threads, hot block past the design's blocks";
    rt::ThreadPool::set_global_concurrency(0);
  }
}

TEST(IrValidation, ScaledDelaysStretchEndpoints) {
  // Figure 7, Region 1: endpoints fed by droopy logic get slower.
  const Experiment& exp = exp_fixture();
  const Flows& f = flows_fixture();
  ASSERT_FALSE(f.conventional.patterns.patterns.empty());
  // Pick the loudest pattern for a visible effect.
  std::size_t loudest = 0;
  for (std::size_t i = 0; i < f.conv_scap.size(); ++i) {
    if (f.conv_scap[i].num_toggles > f.conv_scap[loudest].num_toggles) {
      loudest = i;
    }
  }
  const IrValidationResult v =
      validate_pattern_ir(exp.soc, *exp.lib, exp.grid, exp.ctx,
                          f.conventional.patterns.patterns[loudest]);
  ASSERT_GT(v.ir.worst_vdd_v, 0.0);

  double sum_delta = 0.0;
  std::size_t active = 0, slower = 0;
  for (FlopId fl = 0; fl < exp.soc.netlist.num_flops(); ++fl) {
    const double n = v.nominal_endpoint_ns[fl];
    const double s = v.scaled_endpoint_ns[fl];
    if (n <= 0.0) continue;
    ++active;
    sum_delta += s - n;
    slower += (s > n);
  }
  ASSERT_GT(active, 0u);
  EXPECT_GT(sum_delta, 0.0) << "average endpoint delay must increase";
  EXPECT_GT(slower, active / 2);
}

TEST(IrValidation, ClockArrivalsShiftUnderDroop) {
  const Experiment& exp = exp_fixture();
  const Flows& f = flows_fixture();
  const IrValidationResult v = validate_pattern_ir(
      exp.soc, *exp.lib, exp.grid, exp.ctx,
      f.conventional.patterns.patterns[0]);
  bool shifted = false;
  for (FlopId fl = 0; fl < exp.soc.netlist.num_flops(); ++fl) {
    EXPECT_GE(v.scaled_arrival_ns[fl], v.nominal_arrival_ns[fl] - 1e-12);
    if (v.scaled_arrival_ns[fl] > v.nominal_arrival_ns[fl] + 1e-9) {
      shifted = true;
    }
  }
  EXPECT_TRUE(shifted);
}

TEST(IrValidation, NonActiveEndpointsStayZero) {
  const Experiment& exp = exp_fixture();
  const Flows& f = flows_fixture();
  const IrValidationResult v = validate_pattern_ir(
      exp.soc, *exp.lib, exp.grid, exp.ctx,
      f.conventional.patterns.patterns[0]);
  for (FlopId fl = 0; fl < exp.soc.netlist.num_flops(); ++fl) {
    if (!exp.ctx.active[fl]) continue;
    if (v.nominal_endpoint_ns[fl] == 0.0) {
      // A non-active endpoint nominally should usually stay quiet when
      // delays scale (same logic values, different arrival times).
      EXPECT_LT(v.scaled_endpoint_ns[fl], exp.soc.config.tester_period_ns);
    }
  }
}

TEST(Repair, DropsViolationsKeepsMostCoverage) {
  const Experiment& exp = exp_fixture();
  const Flows& f = flows_fixture();
  AtpgOptions opt;
  opt.seed = 123;
  const RepairResult rep = repair_scap_violations(
      exp.soc, *exp.lib, exp.ctx, exp.faults, f.conventional.patterns,
      exp.thresholds, Experiment::kHotBlock, opt);
  EXPECT_GT(rep.violations_before, 0u);
  EXPECT_LT(rep.violations_after, rep.violations_before / 4 + 1);
  // Coverage after repair stays within a few percent of the original.
  EXPECT_GT(rep.detected_after + rep.detected_before / 20,
            rep.detected_before);
  EXPECT_EQ(rep.patterns_after, rep.patterns.size());
}

TEST(Experiment, RailCalibrationInPaperRegime) {
  // The grid is calibrated so functional statistical drop sits near 5.5% of
  // VDD (the paper's Table 3 regime); Case2 then lands near 2x that.
  const Experiment& exp = exp_fixture();
  const double vdd = exp.lib->vdd();
  EXPECT_GT(exp.stat_case1.chip_worst_vdd_v, 0.03 * vdd);
  EXPECT_LT(exp.stat_case1.chip_worst_vdd_v, 0.08 * vdd);
  EXPECT_GT(exp.stat_case2.chip_worst_vdd_v, 1.5 * exp.stat_case1.chip_worst_vdd_v);
}

TEST(Experiment, StandardFixtureSane) {
  const Experiment& exp = exp_fixture();
  EXPECT_GT(exp.soc.netlist.num_flops(), 100u);
  EXPECT_GT(exp.faults.size(), 1000u);
  EXPECT_LT(exp.faults.size(), exp.all_faults.size());
  EXPECT_EQ(exp.ctx.domain, 0);
  EXPECT_GT(exp.ctx.active_count(), exp.soc.netlist.num_flops() / 2);
  EXPECT_GT(exp.stat_case2.chip_power_mw, exp.stat_case1.chip_power_mw);
}

}  // namespace
}  // namespace scap
