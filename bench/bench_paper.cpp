// The paper bench: every table and figure of the paper's evaluation, the
// ablations and the extensions, printed by one process.
//
//   bench_paper [--only <id>[,<id>...]]
//
// The experiment is built once. The conventional random-fill flow, the
// paper's 3-step quiet-fill flow, the one-step quiet-fill flow two ablations
// share and their SCAP profiles are computed at most once each, and only
// when a selected section needs them; a flow that only one ablation uses
// lives inside that section. Sections print in the order of
// kSections whatever the order of --only; stdout carries nothing but the
// sections, so a full run diffs byte for byte against
// bench/history/paper_golden.txt. BENCH_paper.json gets one phase per shared
// stage and one per section.
//
// Each section regenerates one table or figure on the scaled synthetic SOC,
// printing our measured values next to the paper's published ones (shape
// comparison -- the substrate is a simulator, not the authors' 180 nm
// testbed). SCAPGEN_BENCH_SCALE overrides the SOC scale (default 0.04).
#include "bench_common.h"

#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <tuple>

#include "atpg/shift_power.h"
#include "core/test_schedule.h"
#include "netlist/design_stats.h"
#include "power/dynamic_ir.h"
#include "sim/batch_sim.h"
#include "sim/sta.h"
#include "util/stats.h"

namespace scap {
namespace {

/// The experiment plus the stages sections share, each filled at most once
/// by prepare() before the first section that needs it.
struct Paper {
  explicit Paper(const Experiment& e) : exp(e) {}
  const Experiment& exp;
  std::optional<FlowResult> conv;                    ///< random-fill flow
  std::optional<std::vector<ScapReport>> conv_scap;  ///< its SCAP profile
  std::optional<FlowResult> pa;                      ///< 3-step quiet fill
  std::optional<std::vector<ScapReport>> pa_scap;    ///< its SCAP profile
  std::optional<FlowResult> quiet;  ///< one-step quiet fill, every block
  std::optional<std::vector<ScapReport>> quiet_scap;  ///< its SCAP profile
};

/// Shared stages a section reads; a profile implies its flow.
enum Stage : unsigned {
  kConvFlow = 1u << 0,
  kConvScap = 1u << 1,
  kPaFlow = 1u << 2,
  kPaScap = 1u << 3,
  kQuietScap = 1u << 4,
};

/// ATPG options of every pattern-generation section (deterministic).
AtpgOptions bench_atpg_options(const Experiment& exp) {
  AtpgOptions opt;
  opt.seed = 2007;
  opt.backtrack_limit = 32;
  opt.chains = &exp.soc.scan.chains;
  return opt;
}

/// Compute the stages in `needs` that are still missing, each in its own
/// phase of the run.
void prepare(Paper& p, unsigned needs, bench::BenchRun& run) {
  const Experiment& exp = p.exp;
  if ((needs & (kConvFlow | kConvScap)) && !p.conv) {
    run.phase("conventional_flow");
    AtpgOptions opt = bench_atpg_options(exp);
    opt.fill = FillMode::kRandom;
    p.conv = run_conventional_atpg(exp.soc.netlist, exp.ctx, exp.faults, opt);
  }
  if ((needs & kConvScap) && !p.conv_scap) {
    run.phase("conventional_profile");
    p.conv_scap = scap_profile(exp.soc, *exp.lib, exp.ctx, p.conv->patterns);
  }
  if ((needs & (kPaFlow | kPaScap)) && !p.pa) {
    run.phase("power_aware_flow");
    AtpgOptions opt = bench_atpg_options(exp);
    opt.fill = FillMode::kQuiet;
    p.pa = run_power_aware_atpg(
        exp.soc.netlist, exp.ctx, exp.faults,
        StepPlan::paper_default(exp.soc.netlist.block_count()), opt);
  }
  if ((needs & kPaScap) && !p.pa_scap) {
    run.phase("power_aware_profile");
    p.pa_scap = scap_profile(exp.soc, *exp.lib, exp.ctx, p.pa->patterns);
  }
  // The fill ablation's fill-quiet row and the steps ablation's one-step row.
  // A one-step plan whose mask holds every block targets every fault (a
  // fault's block is always below block_count()) at the base seed and care
  // fraction, so it is this flow pattern for pattern.
  if ((needs & kQuietScap) && !p.quiet) {
    run.phase("quiet_flow");
    AtpgOptions opt = bench_atpg_options(exp);
    opt.fill = FillMode::kQuiet;
    p.quiet = run_conventional_atpg(exp.soc.netlist, exp.ctx, exp.faults, opt);
    run.phase("quiet_profile");
    p.quiet_scap = scap_profile(exp.soc, *exp.lib, exp.ctx, p.quiet->patterns);
  }
}

/// Down-sampled series printer for figure-style data.
template <typename Fn>
void print_series(const char* name, std::size_t n, Fn&& value,
                  std::size_t max_points = 40) {
  std::printf("%s (%zu points, down-sampled):\n  index:", name, n);
  const std::size_t step = n <= max_points ? 1 : n / max_points;
  for (std::size_t i = 0; i < n; i += step) std::printf(" %zu", i);
  std::printf("\n  value:");
  for (std::size_t i = 0; i < n; i += step) std::printf(" %.2f", value(i));
  std::printf("\n");
}

/// The pattern with the most toggles: Table 4's representative
/// high-activity pattern and the FTAS sweep's IR stress case.
std::size_t loudest_pattern(std::span<const ScapReport> profile) {
  std::size_t pick = 0;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    if (profile[i].num_toggles > profile[pick].num_toggles) pick = i;
  }
  return pick;
}

/// The first pattern with the highest B5 SCAP at or below `limit_mw`.
std::size_t hottest_b5_pattern(std::span<const ScapReport> profile,
                               double limit_mw) {
  std::size_t pick = 0;
  double best = -1e18;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const double scap =
        ScapThresholds::block_scap_mw(profile[i], Experiment::kHotBlock);
    if (scap <= limit_mw && scap > best) {
      best = scap;
      pick = i;
    }
  }
  return pick;
}

/// Dynamic rail solve of one pattern over its switching window.
DynamicIrReport pattern_ir(const Experiment& exp, const Pattern& pattern) {
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  DynamicIrBinner binner(exp.soc.netlist, exp.soc.parasitics, *exp.lib);
  analyzer.analyze_into(exp.ctx, pattern, binner);
  return analyze_pattern_ir(exp.soc.netlist, exp.soc.placement, *exp.lib,
                            exp.soc.floorplan, exp.grid, binner.charges(),
                            &exp.soc.clock_tree, exp.ctx.domain);
}

/// One LOC clock pulse on lane 0 of a one-word batch simulation: active
/// flops capture their D value, flops of held domains keep their bit.
std::vector<std::uint64_t> pulse(const BatchSim& sim, const TestContext& ctx,
                                 std::vector<std::uint64_t> q) {
  const std::vector<std::uint64_t> pi(ctx.pi_values.begin(),
                                      ctx.pi_values.end());
  std::vector<std::uint64_t> nets, d;
  sim.eval_frame(q, pi, nets);
  sim.next_state(nets, d);
  for (FlopId f = 0; f < q.size(); ++f) {
    if (ctx.active[f]) q[f] = d[f] & 1u;
  }
  return q;
}

/// Patterns, coverage and B5 violations of one flow: a row of the fill and
/// step-plan ablations.
struct FlowRow {
  std::string name;
  std::size_t patterns = 0;
  AtpgStats stats;
  std::size_t violations = 0;
};

FlowRow flow_row(const Experiment& exp, std::string name,
                 const FlowResult& flow,
                 const std::vector<ScapReport>& profile) {
  return {std::move(name), flow.patterns.size(), flow.stats,
          exp.thresholds.count_violations(profile, Experiment::kHotBlock)};
}

FlowRow profiled_row(const Experiment& exp, std::string name,
                     const FlowResult& flow) {
  return flow_row(exp, std::move(name), flow,
                  scap_profile(exp.soc, *exp.lib, exp.ctx, flow.patterns));
}

// Table 1 -- Design characteristics.
//
// Paper: 6 clock domains, 16 scan chains, ~23K scan flops, 22 negative-edge
// scan flops on a separate chain, and the transition-delay-fault universe.
// We report the same characteristics for the scaled synthetic SOC.
void print_table1(const Paper& p) {
  const Experiment& exp = p.exp;
  const DesignStats s = compute_design_stats(exp.soc.netlist);

  TextTable t({"characteristic", "paper (Turbo-Eagle)", "this repro"});
  t.add_row({"Clock domains", "6", std::to_string(s.num_clock_domains)});
  t.add_row({"Scan chains", "16", std::to_string(exp.soc.scan.chains.size())});
  t.add_row({"Total scan flops", "~23000", std::to_string(s.num_flops)});
  t.add_row({"Negative-edge scan flops", "22",
             std::to_string(s.num_neg_edge_flops)});
  t.add_row({"Transition delay faults (all pins)", "n/a (not printed)",
             std::to_string(exp.all_faults.size())});
  t.add_row({"TDF after equivalence collapsing", "-",
             std::to_string(exp.faults.size())});
  t.add_row({"Combinational gates", "-", std::to_string(s.num_gates)});
  t.add_row({"Blocks (B1..B6)", "6", std::to_string(s.num_blocks)});
  t.add_row({"Max logic depth", "-", std::to_string(s.max_logic_level)});
  {
    DelayModel dm(exp.soc.netlist, *exp.lib, exp.soc.parasitics);
    std::vector<double> arrivals(exp.soc.netlist.num_flops());
    for (FlopId f = 0; f < exp.soc.netlist.num_flops(); ++f) {
      arrivals[f] = exp.soc.clock_tree.nominal_arrival_ns(f);
    }
    const StaReport sta = run_sta(exp.soc.netlist, dm, *exp.lib, arrivals);
    const double tmin = sta.min_period_ns(0.1, arrivals, exp.soc.netlist);
    t.add_row({"STA min period / Fmax", "10 ns / 100 MHz (timing closed)",
               TextTable::num(tmin, 2) + " ns / " +
                   TextTable::num(1000.0 / tmin, 0) + " MHz"});
  }
  std::printf("%s\n", t.render("Table 1: design characteristics").c_str());

  std::printf("%s\n", format_design_stats(s).c_str());
}

// Table 2 -- Clock-domain analysis.
//
// Paper: six domains; clka is the dominant one (~18K of ~23K scan flops at
// 100 MHz, spanning B1..B6), side domains cover single blocks. Transition
// patterns are generated per clock domain, so the dominant domain drives the
// whole methodology.
void print_table2(const Paper& p) {
  const Experiment& exp = p.exp;
  const Netlist& nl = exp.soc.netlist;
  const auto by_domain = nl.flops_by_domain();

  TextTable t({"domain", "#scan cells", "freq [MHz]", "blocks covered",
               "share"});
  for (DomainId d = 0; d < nl.domain_count(); ++d) {
    std::vector<bool> covered(nl.block_count(), false);
    for (FlopId f : by_domain[d]) covered[nl.flop(f).block] = true;
    std::string blocks;
    for (std::size_t b = 0; b < covered.size(); ++b) {
      if (covered[b]) {
        if (!blocks.empty()) blocks += ",";
        blocks += "B" + std::to_string(b + 1);
      }
    }
    t.add_row({std::string("clk") + static_cast<char>('a' + d),
               std::to_string(by_domain[d].size()),
               TextTable::num(exp.soc.config.domain_freq_mhz[d], 0), blocks,
               TextTable::num(100.0 * static_cast<double>(by_domain[d].size()) /
                                  static_cast<double>(nl.num_flops()),
                              1) +
                   "%"});
  }
  std::printf("%s\n", t.render("Table 2: clock domain analysis").c_str());
  std::printf("Paper shape: clka dominant (~78%% of flops, 100 MHz, B1-B6);\n"
              "side domains clkb..clkf cover one block each (B1, B3, B6, B6, "
              "B2).\n\n");
}

// Table 3 -- Statistical (vector-less) functional IR-drop analysis per block.
//
// Paper: 30% net toggle probability; Case1 averages over the full cycle,
// Case2 concentrates the same switching into half the cycle (the average
// switching-time-frame observation). Published shape:
//   - average switching power doubles from Case1 to Case2 in every block,
//   - worst average IR-drop does NOT double for the small peripheral blocks
//     (B1..B4, B6 sit next to the pad ring),
//   - B5 consumes the most power and sees the highest IR-drop once the
//     window shrinks -> it needs special attention during ATPG.
// The Case2 block powers become the SCAP screening thresholds.
void print_table3(const Paper& p) {
  const Experiment& exp = p.exp;
  const StatisticalReport& c1 = exp.stat_case1;
  const StatisticalReport& c2 = exp.stat_case2;

  TextTable t({"block", "P case1 [mW]", "VDD drop c1 [V]", "VSS rise c1 [V]",
               "P case2 [mW]", "VDD drop c2 [V]", "VSS rise c2 [V]",
               "drop ratio c2/c1"});
  for (std::size_t b = 0; b < c1.block_power_mw.size(); ++b) {
    t.add_row({"B" + std::to_string(b + 1),
               TextTable::num(c1.block_power_mw[b], 1),
               TextTable::num(c1.block_worst_vdd_v[b], 3),
               TextTable::num(c1.block_worst_vss_v[b], 3),
               TextTable::num(c2.block_power_mw[b], 1),
               TextTable::num(c2.block_worst_vdd_v[b], 3),
               TextTable::num(c2.block_worst_vss_v[b], 3),
               TextTable::num(c2.block_worst_vdd_v[b] /
                                  std::max(1e-12, c1.block_worst_vdd_v[b]),
                              2)});
  }
  t.add_row({"Chip", TextTable::num(c1.chip_power_mw, 1),
             TextTable::num(c1.chip_worst_vdd_v, 3),
             TextTable::num(c1.chip_worst_vss_v, 3),
             TextTable::num(c2.chip_power_mw, 1),
             TextTable::num(c2.chip_worst_vdd_v, 3),
             TextTable::num(c2.chip_worst_vss_v, 3),
             TextTable::num(c2.chip_worst_vdd_v /
                                std::max(1e-12, c1.chip_worst_vdd_v),
                            2)});
  std::printf("%s\n",
              t.render("Table 3: statistical IR-drop, Case1 (full cycle) vs "
                       "Case2 (half-cycle STW), toggle prob 0.30")
                  .c_str());

  // Shape checks against the paper.
  std::size_t hottest_power = 0, hottest_drop = 0;
  for (std::size_t b = 1; b < c2.block_power_mw.size(); ++b) {
    if (c2.block_power_mw[b] > c2.block_power_mw[hottest_power]) {
      hottest_power = b;
    }
    if (c2.block_worst_vdd_v[b] > c2.block_worst_vdd_v[hottest_drop]) {
      hottest_drop = b;
    }
  }
  std::printf("Shape vs paper: power doubles in every block (exact, by "
              "construction of Case2);\n");
  std::printf("  hottest block by Case2 power:  B%zu (paper: B5)\n",
              hottest_power + 1);
  std::printf("  hottest block by Case2 IR-drop: B%zu (paper: B5)\n",
              hottest_drop + 1);
  std::printf("  B5 Case2 power (the paper's 204 mW-class SCAP threshold "
              "here): %.1f mW\n\n",
              exp.thresholds.block_mw[Experiment::kHotBlock]);
}

// Table 4 -- CAP vs SCAP for one launch-off-capture pattern.
//
// Paper: one TetraMAX random-fill pattern on clka; STW 8.34 ns against a
// 20 ns tester cycle, so the switching-window power (SCAP) is > 2x the
// cycle-average power (CAP): 118.6 -> 284.3 mW class numbers, and the worst
// average IR-drop measured over the SCAP window roughly doubles vs the CAP
// window (0.128/0.134 V -> ~2x on VDD/VSS).
void print_table4(const Paper& p) {
  const Experiment& exp = p.exp;
  const auto& profile = *p.conv_scap;

  // The paper picks a representative high-activity pattern.
  const std::size_t pick = loudest_pattern(profile);
  const ScapReport& rep = profile[pick];

  // Dynamic rail solve over the two windows: CAP spreads the charge over the
  // full tester cycle T, SCAP concentrates it in the switching window.
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  DynamicIrBinner binner(exp.soc.netlist, exp.soc.parasitics, *exp.lib);
  analyzer.analyze_into(exp.ctx, p.conv->patterns.patterns[pick], binner);
  RailCharges cap_window = binner.charges();
  cap_window.window_ns = rep.period_ns;
  const DynamicIrReport ir_cap = analyze_pattern_ir(
      exp.soc.netlist, exp.soc.placement, *exp.lib, exp.soc.floorplan,
      exp.grid, cap_window, &exp.soc.clock_tree, exp.ctx.domain);
  const DynamicIrReport ir_scap = analyze_pattern_ir(
      exp.soc.netlist, exp.soc.placement, *exp.lib, exp.soc.floorplan,
      exp.grid, binner.charges(), &exp.soc.clock_tree, exp.ctx.domain);

  std::printf("pattern %zu of the random-fill clka set: STW %.2f ns, tester "
              "cycle %.0f ns (paper: 8.34 ns / 20 ns)\n\n",
              pick, rep.stw_ns, rep.period_ns);

  TextTable t({"model", "P VDD [mW]", "P VSS [mW]", "worst VDD drop [V]",
               "worst VSS rise [V]"});
  t.add_row({"CAP", TextTable::num(rep.cap_mw(Rail::kVdd), 2),
             TextTable::num(rep.cap_mw(Rail::kVss), 2),
             TextTable::num(ir_cap.worst_vdd_v, 3),
             TextTable::num(ir_cap.worst_vss_v, 3)});
  t.add_row({"SCAP", TextTable::num(rep.scap_mw(Rail::kVdd), 2),
             TextTable::num(rep.scap_mw(Rail::kVss), 2),
             TextTable::num(ir_scap.worst_vdd_v, 3),
             TextTable::num(ir_scap.worst_vss_v, 3)});
  std::printf("%s\n", t.render("Table 4: CAP vs SCAP, one pattern").c_str());

  const double power_ratio = rep.scap_mw(Rail::kVdd) / rep.cap_mw(Rail::kVdd);
  const double ir_ratio = ir_scap.worst_vdd_v / std::max(1e-12, ir_cap.worst_vdd_v);
  std::printf("Shape vs paper: SCAP/CAP power ratio %.2fx (paper >2x);\n"
              "  SCAP-window worst IR-drop / CAP-window: %.2fx (paper ~2x)\n\n",
              power_ratio, ir_ratio);
}

// Figure 2 -- SCAP per pattern in block B5 for the conventional random-fill
// transition-fault pattern set (clka domain).
//
// Paper: 5846 patterns; a large share (~2253, 39%) exceed the 204 mW block-B5
// threshold derived from the Case2 statistical analysis. That is the
// motivation for the power-aware flow: random fill maximizes fortuitous
// detection and, with it, switching activity in the hot block.
void print_fig2(const Paper& p) {
  const Experiment& exp = p.exp;
  const auto& profile = *p.conv_scap;
  const std::size_t hot = Experiment::kHotBlock;
  const double threshold = exp.thresholds.block_mw[hot];

  print_series("B5 SCAP per pattern [mW]", profile.size(), [&](std::size_t i) {
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
  const AtpgStats& cov = p.conv->stats;
  std::printf("coverage of the set: %.2f%% fault coverage, %.2f%% test "
              "coverage, %zu untestable, %zu aborted\n\n",
              100.0 * cov.fault_coverage(), 100.0 * cov.test_coverage(),
              cov.untestable, cov.aborted);
}

// Figure 3 -- Dynamic IR-drop maps for two patterns.
//
// Paper: P1 has very high SCAP (283.5 mW in B5), P2 sits near the threshold
// (190.7 mW); their worst average VDD drops are 0.28 V and 0.19 V, with the
// red (>10% VDD = 0.18 V) region concentrated over B5. We pick P1/P2 the
// same way from our random-fill set and render the rail maps.
void print_fig3(const Paper& p) {
  const Experiment& exp = p.exp;
  const auto& profile = *p.conv_scap;
  const std::size_t hot = Experiment::kHotBlock;
  const double threshold = exp.thresholds.block_mw[hot];

  // P1: highest B5 SCAP. P2: closest to the threshold from below.
  const std::size_t p1 = hottest_b5_pattern(
      profile, std::numeric_limits<double>::infinity());
  const std::size_t p2 = hottest_b5_pattern(profile, threshold);

  const double alarm = exp.lib->ir_alarm_fraction() * exp.lib->vdd();
  double worst_vdd[2] = {};
  std::size_t k = 0;
  for (auto [name, idx, paper_scap, paper_drop] :
       {std::tuple{"P1 (high SCAP)", p1, 283.5, 0.28},
        std::tuple{"P2 (near threshold)", p2, 190.7, 0.19}}) {
    const double scap = ScapThresholds::block_scap_mw(profile[idx], hot);
    const DynamicIrReport ir = pattern_ir(exp, p.conv->patterns.patterns[idx]);
    worst_vdd[k++] = ir.worst_vdd_v;
    std::printf("%s = pattern %zu: B5 SCAP %.1f mW (paper %.1f mW), worst VDD "
                "drop %.3f V (paper %.2f V), worst in B5 %.3f V\n",
                name, idx, scap, paper_scap, ir.worst_vdd_v, paper_drop,
                ir.block_worst_vdd_v[hot]);
    std::printf("VDD-drop map ('#' = above the 10%% VDD alarm of %.2f V):\n%s\n",
                alarm,
                PowerGrid::ascii_map(ir.vdd_solution, alarm, 48).c_str());
  }

  std::printf("Shape vs paper: P1 worst drop / P2 worst drop = %.2fx "
              "(paper 0.28/0.19 = 1.47x)\n\n",
              worst_vdd[0] / std::max(1e-12, worst_vdd[1]));
}

// Figure 4 -- Test-coverage curves: conventional ATPG vs the new stepwise
// pattern-generation procedure.
//
// Paper: the stepwise flow converges more slowly (quiet fill forfeits some
// fortuitous detection, and blocks are targeted one subset at a time) and
// lands at the same final coverage with ~644 extra patterns (5846 -> 6490,
// about +11% on clka).
void print_fig4(const Paper& p) {
  const FlowResult& conv = *p.conv;
  const FlowResult& pa = *p.pa;

  const auto conv_curve = conv.coverage_curve();
  const auto pa_curve = pa.coverage_curve();
  print_series("conventional fault coverage [%]", conv_curve.size(),
               [&](std::size_t i) { return 100.0 * conv_curve[i]; });
  print_series("power-aware fault coverage [%]", pa_curve.size(),
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

// Figure 6 -- SCAP per pattern in B5 for the NEW (power-aware) pattern set.
//
// Paper: 6490 clka patterns. The prefix (~4000 patterns, Steps 1-2 targeting
// B1-B4 and B6) shows low and nearly constant B5 SCAP because the fill keeps
// B5 quiet; a burst appears when Step 3 finally targets B5's own faults (the
// greedy ATPG is power-unaware within a block); only ~57 patterns stay above
// the threshold vs 2253 for random fill, at ~+8-11% pattern count.
void print_fig6(const Paper& p) {
  const Experiment& exp = p.exp;
  const auto& profile = *p.pa_scap;
  const FlowResult& flow = *p.pa;
  const std::size_t hot = Experiment::kHotBlock;
  const double threshold = exp.thresholds.block_mw[hot];

  print_series("B5 SCAP per pattern [mW]", profile.size(), [&](std::size_t i) {
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
  const auto& conv_profile = *p.conv_scap;
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

// Figure 7 -- Per-endpoint path delay with and without IR-drop effects.
//
// Paper: one below-threshold pattern that exercises mostly block B5 is
// re-simulated with every cell delay scaled by its local droop
// (ScaledCellDelay = Delay * (1 + 0.9 * dV)) and clock buffers scaled the
// same way. Observed: Region 1 endpoints slow down by up to ~30% (their
// input cones sit in the B5 droop), Region 2 endpoints *measure faster*
// because their own capture-clock path slowed; non-active endpoints stay 0.
void print_fig7(const Paper& p) {
  const Experiment& exp = p.exp;
  // Below the threshold, maximal B5 activity: the paper's circled pattern in
  // Figure 6.
  const std::size_t pick = hottest_b5_pattern(
      *p.pa_scap, exp.thresholds.block_mw[Experiment::kHotBlock]);
  const IrValidationResult v = validate_pattern_ir(
      exp.soc, *exp.lib, exp.grid, exp.ctx, p.pa->patterns.patterns[pick]);

  const std::size_t n = exp.soc.netlist.num_flops();
  print_series("endpoint delay, no IR [ns]", n, [&](std::size_t i) {
    return v.nominal_endpoint_ns[i];
  });
  print_series("endpoint delay, IR-scaled [ns]", n, [&](std::size_t i) {
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

// Ablation -- don't-care fill policy.
//
// The paper tried TetraMAX's three fill options and reports that fill-0 gave
// the best results on Turbo-Eagle (its blocks idle quietly from the all-zero
// state). This section regenerates the comparison on the synthetic SOC and
// adds the library's two extensions: fill-quiet (near-fixed-point idle
// state) and per-block fill (the "more ideal scenario" of Section 3.1). The
// random-fill row is the conventional flow, the fill-quiet row the shared
// one-step quiet-fill flow.
void print_ablation_fill(const Paper& p) {
  const Experiment& exp = p.exp;
  std::vector<FlowRow> rows{flow_row(exp, fill_mode_name(FillMode::kRandom),
                                     *p.conv, *p.conv_scap)};
  auto run_fill = [&](std::string name, const AtpgOptions& opt) {
    rows.push_back(profiled_row(
        exp, std::move(name),
        run_conventional_atpg(exp.soc.netlist, exp.ctx, exp.faults, opt)));
  };
  for (FillMode mode :
       {FillMode::kFill0, FillMode::kFill1, FillMode::kAdjacent}) {
    AtpgOptions opt = bench_atpg_options(exp);
    opt.fill = mode;
    run_fill(fill_mode_name(mode), opt);
  }
  rows.push_back(flow_row(exp, fill_mode_name(FillMode::kQuiet), *p.quiet,
                          *p.quiet_scap));
  // Per-block extension: quiet everywhere except random in the well-fed
  // corner blocks (keeps their fortuitous coverage without waking B5).
  {
    AtpgOptions opt = bench_atpg_options(exp);
    opt.per_block_fill.assign(exp.soc.netlist.block_count(), FillMode::kQuiet);
    opt.per_block_fill[0] = FillMode::kRandom;
    opt.per_block_fill[1] = FillMode::kRandom;
    opt.per_block_fill[2] = FillMode::kRandom;
    opt.per_block_fill[3] = FillMode::kRandom;
    run_fill("per-block (random B1-B4, quiet B5/B6)", opt);
  }

  TextTable t({"fill policy", "patterns", "fault coverage", "test coverage",
               "B5 violations", "violation rate"});
  for (const FlowRow& r : rows) {
    t.add_row({r.name, std::to_string(r.patterns),
               TextTable::num(100.0 * r.stats.fault_coverage(), 2) + "%",
               TextTable::num(100.0 * r.stats.test_coverage(), 2) + "%",
               std::to_string(r.violations),
               TextTable::num(100.0 * static_cast<double>(r.violations) /
                                  static_cast<double>(r.patterns),
                              1) +
                   "%"});
  }
  std::printf("%s\n",
              t.render("Ablation: fill policy vs pattern count / coverage / "
                       "B5 SCAP violations (single-step ATPG)")
                  .c_str());
  std::printf("Paper: fill-0 won on Turbo-Eagle; on a design whose idle state "
              "is not all-zero,\nfill-quiet is the faithful equivalent (see "
              "DESIGN.md substitutions).\n\n");
}

// Ablation -- why the stepwise block targeting matters.
//
// Section 3.1's observation: even with a quiet fill, targeting all blocks at
// once lets the greedy ATPG pack faults from every block into the early
// patterns (few don't-care bits anywhere -> the fill has nothing to keep
// quiet). Handing the tool one block subset at a time leaves the other
// blocks fully X, which the quiet fill then silences. This section compares
// one-step quiet fill against the paper's 3-step plan, plus a per-block-step
// granularity sweep. The one-step row is the shared one-step quiet-fill
// flow, the budgeted 3-step row the power-aware flow.
void print_ablation_steps(const Paper& p) {
  const Experiment& exp = p.exp;
  const std::size_t nb = exp.soc.netlist.block_count();

  std::vector<FlowRow> rows{flow_row(exp, "1 step (all blocks at once)",
                                     *p.quiet, *p.quiet_scap)};
  auto run_plan = [&](std::string name, const StepPlan& plan) {
    AtpgOptions opt = bench_atpg_options(exp);
    opt.fill = FillMode::kQuiet;
    rows.push_back(profiled_row(
        exp, std::move(name),
        run_power_aware_atpg(exp.soc.netlist, exp.ctx, exp.faults, plan,
                             opt)));
  };
  run_plan("3 steps, unthrottled B5 step", StepPlan::paper_default(nb, 1.0));
  rows.push_back(flow_row(exp, "3 steps + B5 care budget (paper wishlist)",
                          *p.pa, *p.pa_scap));
  {
    StepPlan per_block;
    for (std::size_t b : {0u, 1u, 2u, 3u, 5u, 4u}) {  // B5 last
      std::vector<std::uint8_t> mask(nb, 0);
      mask[b] = 1;
      per_block.steps.push_back(
          StepPlan::Step{mask, b == 4u ? 0.04 : 1.0});
    }
    run_plan("6 steps (one block at a time, B5 last)", per_block);
  }

  TextTable t({"plan", "patterns", "fault coverage", "test coverage",
               "B5 violations"});
  for (const FlowRow& r : rows) {
    t.add_row({r.name, std::to_string(r.patterns),
               TextTable::num(100.0 * r.stats.fault_coverage(), 2) + "%",
               TextTable::num(100.0 * r.stats.test_coverage(), 2) + "%",
               std::to_string(r.violations)});
  }
  std::printf("%s\n",
              t.render("Ablation: step-plan granularity (quiet fill)").c_str());
  std::printf("Expected shape: finer steps cost patterns but keep untargeted "
              "blocks X-rich,\nwhich is what the quiet fill converts into low "
              "B5 SCAP.\n\n");
}

// Ablation -- launch-off-capture vs launch-off-shift under the SCAP model.
//
// The paper (Section 1.1) surveys both schemes and builds its method on LOC.
// This section quantifies the textbook trade-off on the same SOC: LOS reaches
// higher coverage faster (S2 is fully controllable through the chains) but
// its launch shift toggles every scan cell in every chain -- including held
// clock domains -- so its per-pattern SCAP and threshold-violation rate are
// far worse, which is exactly why a supply-noise-aware flow prefers LOC.
struct SchemeRow {
  std::string name;
  std::size_t patterns = 0;
  AtpgStats stats;
  RunningStats b5_scap;
  std::size_t violations = 0;
  double launches = 0.0;

  void add(const Experiment& exp, const ScapReport& scap,
           std::size_t launched) {
    b5_scap.add(ScapThresholds::block_scap_mw(scap, Experiment::kHotBlock));
    launches += static_cast<double>(launched);
    violations += exp.thresholds.violates(scap, Experiment::kHotBlock) ? 1 : 0;
  }
  double mean_launches() const {
    return patterns ? launches / static_cast<double>(patterns) : 0.0;
  }
};

SchemeRow run_scheme(const Experiment& exp, std::string name,
                     const TestContext& ctx) {
  AtpgEngine engine(exp.soc.netlist, ctx);
  AtpgOptions opt = bench_atpg_options(exp);
  opt.fill = FillMode::kRandom;
  const AtpgResult res = engine.run(exp.faults, opt);
  SchemeRow out{std::move(name), res.patterns.size(), res.stats, {}, 0, 0.0};
  // LOS and enhanced scan take S2 from the launch predecessor's S1 bit, so
  // a flop launches where s1[los_pred[f]] != s1[f]; the pool profiles the
  // set and the rows accumulate in pattern order.
  const std::vector<Pattern>& pats = res.patterns.patterns;
  const std::vector<ScapReport> scap =
      scap_profile_patterns(exp.soc, *exp.lib, ctx, pats);
  for (std::size_t i = 0; i < pats.size(); ++i) {
    const std::vector<std::uint8_t>& s1 = pats[i].s1;
    std::size_t launched = 0;
    for (std::size_t f = 0; f < ctx.num_flops(); ++f) {
      launched += s1[ctx.los_pred[f]] != s1[f] ? 1 : 0;
    }
    out.add(exp, scap[i], launched);
  }
  return out;
}

/// The LOC row is the conventional flow and its profile; LOC launches the
/// active flops whose captured D differs from S1.
SchemeRow loc_row(const Paper& p) {
  const Experiment& exp = p.exp;
  const std::size_t nf = exp.soc.netlist.num_flops();
  SchemeRow out{"launch-off-capture", p.conv->patterns.size(), p.conv->stats,
                {}, 0, 0.0};
  const BatchSim sim(exp.soc.netlist.levelized_view(), 1);
  for (std::size_t i = 0; i < out.patterns; ++i) {
    const std::vector<std::uint8_t>& s1 = p.conv->patterns.patterns[i].s1;
    const std::vector<std::uint64_t> q(s1.begin(), s1.begin() + nf);
    const std::vector<std::uint64_t> s2 = pulse(sim, exp.ctx, q);
    std::size_t launched = 0;
    for (std::size_t f = 0; f < nf; ++f) launched += s2[f] != q[f] ? 1 : 0;
    out.add(exp, (*p.conv_scap)[i], launched);
  }
  return out;
}

void print_ablation_los(const Paper& p) {
  const Experiment& exp = p.exp;
  const Netlist& nl = exp.soc.netlist;
  const TestContext los =
      TestContext::for_domain_los(nl, exp.ctx.domain, exp.soc.scan.chains);

  const TestContext enh = TestContext::for_domain_enhanced(nl, exp.ctx.domain);

  const SchemeRow loc = loc_row(p);
  const SchemeRow losr = run_scheme(exp, "launch-off-shift", los);
  const SchemeRow enhr = run_scheme(exp, "enhanced scan", enh);

  TextTable t({"scheme", "patterns", "fault coverage", "test coverage",
               "launch flops/pat", "B5 SCAP mean [mW]", "B5 violations"});
  for (const SchemeRow* r : {&loc, &losr, &enhr}) {
    t.add_row({r->name, std::to_string(r->patterns),
               TextTable::num(100.0 * r->stats.fault_coverage(), 2) + "%",
               TextTable::num(100.0 * r->stats.test_coverage(), 2) + "%",
               TextTable::num(r->mean_launches(), 0),
               TextTable::num(r->b5_scap.mean(), 1),
               std::to_string(r->violations) + " (" +
                   TextTable::num(100.0 * static_cast<double>(r->violations) /
                                      static_cast<double>(r->patterns),
                                  1) +
                   "%)"});
  }
  std::printf("%s\n",
              t.render("Ablation: LOC vs LOS vs enhanced scan (random-fill, clka)").c_str());
  std::printf("Textbook shape: controllability (and coverage) grows LOC -> "
              "LOS -> enhanced scan,\nbut so does launch switching; and "
              "enhanced scan's hold cells cost ~2x cell area,\nwhich is why "
              "industry (and the paper) settle on LOC.\n\n");
}

// Ablation -- scan-shift switching per fill policy.
//
// The paper sets shift power aside ("lower frequencies are used during test
// pattern shift") and notes fill-adjacent exists mostly to cut shift
// switching. This section quantifies both statements on the reproduction SOC:
// shift power is indeed small against the at-speed launch window once the
// 10 MHz shift clock is accounted for, and fill-adjacent cuts scan-cell
// toggles below random fill's. Each pattern shifts in while the response
// the previous one captured shifts out. The at-speed baseline is the
// conventional profile.
void print_ablation_shift(const Paper& p) {
  const Experiment& exp = p.exp;
  const Netlist& nl = exp.soc.netlist;
  const double shift_mhz = exp.soc.config.shift_mhz;

  // Reuse the conventional flow's cubes by re-filling the same care bits
  // under each policy: approximate by refilling the final patterns' care
  // bits is impossible post-fill, so generate fresh cubes per policy.
  TextTable t({"fill policy", "avg toggles/cycle", "peak cycle toggles",
               "avg shift power [mW]", "vs at-speed SCAP"});
  RunningStats scap_stats;
  for (const auto& rep : *p.conv_scap) {
    scap_stats.add(rep.scap_mw(Rail::kVdd) + rep.scap_mw(Rail::kVss));
  }
  const BatchSim sim(nl.levelized_view(), 1);

  for (FillMode mode : {FillMode::kRandom, FillMode::kFill0,
                        FillMode::kAdjacent, FillMode::kQuiet}) {
    AtpgOptions opt = bench_atpg_options(exp);
    opt.fill = mode;
    AtpgEngine engine(nl, exp.ctx);
    // A trimmed fault sample keeps this per-policy ATPG quick.
    std::vector<TdfFault> sample;
    for (std::size_t i = 0; i < exp.faults.size(); i += 8) {
      sample.push_back(exp.faults[i]);
    }
    const AtpgResult res = engine.run(sample, opt);

    RunningStats toggles, peak, power;
    std::vector<std::uint8_t> prev;  // previous response shifts out
    for (std::size_t i = 0; i < res.patterns.size() && i < 64; ++i) {
      const Pattern& pat = res.patterns.patterns[i];
      const auto rep = analyze_shift_power(nl, exp.soc.scan,
                                           exp.soc.parasitics, *exp.lib, pat,
                                           prev);
      toggles.add(rep.avg_toggles_per_cycle);
      peak.add(static_cast<double>(rep.peak_cycle_toggles));
      power.add(rep.avg_power_mw(shift_mhz));
      // The response this pattern captures: the launch pulse, then the
      // capture pulse, each clocking only the active domain.
      const std::vector<std::uint64_t> s1(pat.s1.begin(),
                                          pat.s1.begin() + nl.num_flops());
      const std::vector<std::uint64_t> response =
          pulse(sim, exp.ctx, pulse(sim, exp.ctx, s1));
      prev.assign(response.begin(), response.end());
    }
    t.add_row({fill_mode_name(mode), TextTable::num(toggles.mean(), 1),
               TextTable::num(peak.max(), 0),
               TextTable::num(power.mean(), 2),
               TextTable::num(100.0 * power.mean() /
                                  std::max(1e-9, scap_stats.mean()),
                              1) +
                   "%"});
  }
  std::printf(
      "%s\n",
      t.render("Ablation: shift switching per fill policy (shift clock " +
               TextTable::num(shift_mhz, 0) + " MHz)")
          .c_str());
  std::printf("Expected shape: fill-adjacent minimizes shift toggles (its "
              "purpose per the paper);\nat the slow shift clock, average "
              "shift power stays far below at-speed SCAP, which is\nwhy the "
              "paper ignores shift IR-drop.\n\n");
}

// Extension -- faster-than-at-speed (FTAS) capture sweep.
//
// The paper's STW observation ("the switching window is roughly half the
// cycle") comes from the authors' companion FTAS framework [20]: capturing
// earlier than the functional period catches small delay defects, but
// IR-drop-induced slowdown then causes good-chip endpoints to miss the
// capture edge -- overkill. This section sweeps the capture period on one
// pattern and counts endpoints that would fail setup, with nominal timing
// vs IR-scaled timing; the gap between the two curves is the overkill band.
void print_ftas(const Paper& p) {
  const Experiment& exp = p.exp;

  // Use the loudest pattern, as the IR stress case.
  const std::size_t pick = loudest_pattern(*p.conv_scap);
  const IrValidationResult v = validate_pattern_ir(
      exp.soc, *exp.lib, exp.grid, exp.ctx, p.conv->patterns.patterns[pick]);

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

// Extension -- identify-and-replace repair of SCAP violations.
//
// Reference [18] of the paper statically verifies vectors for IR-drop risk
// and flags the failing ones; the paper's flow avoids generating them in the
// first place. This section closes the remaining loop: take the conventional
// random-fill set, drop every pattern over the B5 threshold, and regenerate
// the lost coverage with throttled quiet-fill ATPG rounds -- a retrofit path
// for pattern sets that already exist.
void print_repair(const Paper& p) {
  const Experiment& exp = p.exp;
  AtpgOptions opt = bench_atpg_options(exp);
  const RepairResult rep = repair_scap_violations(
      exp.soc, *exp.lib, exp.ctx, exp.faults, p.conv->patterns,
      exp.thresholds, Experiment::kHotBlock, opt);

  TextTable t({"metric", "before repair", "after repair"});
  t.add_row({"patterns", std::to_string(rep.patterns_before),
             std::to_string(rep.patterns_after)});
  t.add_row({"B5 SCAP violations", std::to_string(rep.violations_before),
             std::to_string(rep.violations_after)});
  t.add_row({"faults detected", std::to_string(rep.detected_before),
             std::to_string(rep.detected_after)});
  // Untestable is a property of the fault and the test context, not of the
  // pattern set: the conventional flow's classification serves both sides.
  const std::size_t total = exp.faults.size();
  const std::size_t testable = total - p.conv->stats.untestable;
  auto pct = [](std::size_t num, std::size_t den) {
    const double frac = static_cast<double>(num) /
                        static_cast<double>(std::max<std::size_t>(1, den));
    return TextTable::num(100.0 * frac, 2) + "%";
  };
  t.add_row({"fault coverage", pct(rep.detected_before, total),
             pct(rep.detected_after, total)});
  t.add_row({"test coverage", pct(rep.detected_before, testable),
             pct(rep.detected_after, testable)});
  std::printf("%s\n", t.render("Repair of the conventional random-fill set (" +
                               std::to_string(rep.rounds) + " rounds)")
                          .c_str());
  std::printf("Coverage retained: %.2f%% of the original detections at %.0f%% "
              "of the original violation count.\n\n",
              100.0 * static_cast<double>(rep.detected_after) /
                  static_cast<double>(std::max<std::size_t>(1, rep.detected_before)),
              100.0 * static_cast<double>(rep.violations_after) /
                  static_cast<double>(std::max<std::size_t>(1, rep.violations_before)));
}

// Extension -- power-constrained SOC test scheduling (paper Section 1,
// refs [5][6]): per-clock-domain test sessions are packed in parallel under
// a chip power budget. The session powers come from the SCAP model (mean
// per-pattern switching power of each domain's pattern set), the times from
// pattern count x (shift cycles / shift clock + tester cycle).
std::vector<TestSession> build_sessions(const Experiment& exp) {
  const Netlist& nl = exp.soc.netlist;
  std::vector<TestSession> sessions;

  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  for (DomainId d = 0; d < nl.domain_count(); ++d) {
    TestContext ctx = TestContext::for_domain(nl, d);
    if (ctx.active_count() == 0) continue;
    AtpgOptions opt = bench_atpg_options(exp);
    opt.fill = FillMode::kRandom;
    // Sample the fault list for speed; pattern counts scale accordingly.
    std::vector<TdfFault> sample;
    for (std::size_t i = 0; i < exp.faults.size(); i += 4) {
      sample.push_back(exp.faults[i]);
    }
    AtpgEngine engine(nl, ctx);
    const AtpgResult res = engine.run(sample, opt);
    if (res.patterns.patterns.empty()) continue;

    RunningStats scap;
    for (std::size_t i = 0; i < res.patterns.size() && i < 32; ++i) {
      const auto pa = analyzer.analyze(ctx, res.patterns.patterns[i]);
      scap.add(pa.scap.scap_mw(Rail::kVdd) + pa.scap.scap_mw(Rail::kVss));
    }
    const double shift_us = static_cast<double>(exp.soc.scan.max_chain_length()) /
                            exp.soc.config.shift_mhz;
    const double per_pattern_us =
        shift_us + exp.soc.config.tester_period_ns * 1e-3;
    sessions.push_back(TestSession{
        std::string("clk") + static_cast<char>('a' + d),
        static_cast<double>(res.patterns.size()) * per_pattern_us,
        scap.mean()});
  }
  return sessions;
}

void print_scheduling(const Paper& p) {
  const std::vector<TestSession> sessions = build_sessions(p.exp);

  TextTable st({"session", "time [us]", "power [mW]"});
  double max_power = 0.0, sum_power = 0.0;
  for (const TestSession& s : sessions) {
    st.add_row({s.name, TextTable::num(s.time_us, 1),
                TextTable::num(s.power_mw, 1)});
    max_power = std::max(max_power, s.power_mw);
    sum_power += s.power_mw;
  }
  std::printf("%s\n", st.render("Per-domain test sessions:").c_str());

  const double serial = serial_time_us(sessions);
  TextTable t({"power budget [mW]", "makespan [us]", "vs serial",
               "peak power [mW]", "note"});
  for (double frac : {1.05, 1.5, 2.0, 3.0}) {
    const double budget = frac * max_power;
    const TestSchedule sch = schedule_tests(sessions, budget);
    t.add_row({TextTable::num(budget, 1), TextTable::num(sch.makespan_us, 1),
               TextTable::num(100.0 * sch.makespan_us / serial, 0) + "%",
               TextTable::num(sch.peak_power_mw, 1),
               sch.budget_exceeded ? "session over budget" : ""});
  }
  const TestSchedule unlimited = schedule_tests(sessions, sum_power + 1.0);
  t.add_row({"unlimited", TextTable::num(unlimited.makespan_us, 1),
             TextTable::num(100.0 * unlimited.makespan_us / serial, 0) + "%",
             TextTable::num(unlimited.peak_power_mw, 1), "fully parallel"});
  std::printf("%s\n",
              t.render("Schedules (serial baseline " +
                       TextTable::num(serial, 1) + " us):")
                  .c_str());
  std::printf("Shape: raising the allowed test power buys test time, the "
              "paper's motivation for\nkeeping per-pattern SCAP under "
              "control when blocks are tested in parallel.\n\n");
}

struct Section {
  const char* id;             ///< --only key and BENCH_paper.json phase
  const char* experiment_id;  ///< header line, as printed
  const char* what;
  unsigned needs;             ///< Stage bits
  void (*print)(const Paper&);
};

constexpr Section kSections[] = {
    {"table1", "Table 1", "design characteristics", 0, print_table1},
    {"table2", "Table 2", "clock domain analysis", 0, print_table2},
    {"table3", "Table 3", "statistical functional IR-drop per block", 0,
     print_table3},
    {"table4", "Table 4", "CAP vs SCAP power/IR for one pattern", kConvScap,
     print_table4},
    {"fig2", "Figure 2", "per-pattern SCAP in B5, conventional random-fill set",
     kConvScap, print_fig2},
    {"fig3", "Figure 3", "dynamic IR-drop maps for P1 (hot) and P2 (cool)",
     kConvScap, print_fig3},
    {"fig4", "Figure 4", "coverage curves: conventional vs power-aware",
     kConvFlow | kPaFlow, print_fig4},
    {"fig6", "Figure 6", "per-pattern SCAP in B5, power-aware stepwise set",
     kConvScap | kPaScap, print_fig6},
    {"fig7", "Figure 7",
     "endpoint path delays: nominal vs IR-drop-scaled delays", kPaScap,
     print_fig7},
    {"fill", "Ablation", "don't-care fill policies", kConvScap | kQuietScap,
     print_ablation_fill},
    {"steps", "Ablation", "step-plan granularity", kPaScap | kQuietScap,
     print_ablation_steps},
    {"los", "Ablation", "LOC vs LOS launch schemes", kConvScap,
     print_ablation_los},
    {"shift", "Ablation", "scan-shift power per fill policy", kConvScap,
     print_ablation_shift},
    {"ftas", "Extension", "faster-than-at-speed capture sweep under IR-drop",
     kConvScap, print_ftas},
    {"repair", "Extension",
     "repairing an existing pattern set's SCAP violations", kConvFlow,
     print_repair},
    {"scheduling", "Extension", "power-constrained SOC test scheduling", 0,
     print_scheduling},
};

int usage() {
  std::fprintf(stderr, "usage: bench_paper [--only <id>[,<id>...]]\nids:");
  for (const Section& s : kSections) std::fprintf(stderr, " %s", s.id);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Mark the sections named in a comma-separated list; false on an unknown id.
bool select_sections(std::string_view list, std::vector<bool>& selected) {
  while (true) {
    const std::size_t comma = list.find(',');
    const std::string_view id = list.substr(0, comma);
    std::size_t i = 0;
    while (i < std::size(kSections) && id != kSections[i].id) ++i;
    if (i == std::size(kSections)) {
      std::fprintf(stderr, "bench_paper: unknown section '%.*s'\n",
                   static_cast<int>(id.size()), id.data());
      return false;
    }
    selected[i] = true;
    if (comma == std::string_view::npos) return true;
    list.remove_prefix(comma + 1);
  }
}

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  using scap::kSections;
  std::vector<bool> selected(std::size(kSections), argc == 1);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--only") != 0 || i + 1 == argc ||
        !scap::select_sections(argv[++i], selected)) {
      return scap::usage();
    }
  }
  std::string ids;
  for (std::size_t i = 0; i < std::size(kSections); ++i) {
    if (!selected[i]) continue;
    if (!ids.empty()) ids += ',';
    ids += kSections[i].id;
  }

  scap::bench::BenchRun run("paper", ids.c_str());
  run.phase("experiment");
  const scap::Experiment exp =
      scap::Experiment::standard(scap::bench::bench_scale(), /*seed=*/2007);
  scap::Paper paper(exp);
  for (std::size_t i = 0; i < std::size(kSections); ++i) {
    if (!selected[i]) continue;
    const scap::Section& s = kSections[i];
    scap::prepare(paper, s.needs, run);
    run.phase(s.id);
    scap::bench::print_header(s.experiment_id, s.what);
    s.print(paper);
  }
  return 0;
}
